import hashlib
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest
from jsonschema.validators import validator_for

from mboxsim import __version__, cli
from mboxsim.cli import main, report_schema
from mboxsim.protocols import STREAM
from mboxsim.runtime import CHUNK, SETTINGS_CSV_HEADER

PI8 = math.pi / 8


def simulate_args(tmp_path, **overrides):
    args = {
        "--protocol": "tb",
        "--gamma": "0.7853981634",
        "--settings": "random:2",
        "--rounds": "2000",
        "--seed": "7",
        "--completion": "normalize",
        "--out": str(tmp_path / "r.json"),
    }
    args.update(overrides)
    argv = ["simulate"]
    for flag, value in args.items():
        if value is not None:
            argv.extend([flag, value])
    return argv


class TestSimulate:
    def test_writes_valid_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        argv = simulate_args(tmp_path, **{"--out": str(out), "--csv": str(csv_path)})
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, report_schema())
        assert payload["config"]["settings_source"] == "random:2"
        # the stream layout is echoed, and the schema admits only this one
        assert payload["config"]["stream"] == STREAM
        payload["config"]["stream"] = "philox/chunk65536/row7"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, report_schema())
        assert csv_path.read_text().startswith("ax,")
        assert "wrote" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        assert main(simulate_args(tmp_path, **{"--out": str(one)})) == 0
        assert main(simulate_args(tmp_path, **{"--out": str(two)})) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_explicit_settings_csv(self, tmp_path):
        settings = tmp_path / "s.csv"
        settings.write_text(",".join(SETTINGS_CSV_HEADER) + "\n0,0,1,0.6,0,0.8\n")
        argv = simulate_args(
            tmp_path,
            **{"--protocol": "p1", "--gamma": str(PI8), "--settings": str(settings)},
        )
        assert main(argv) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["config"]["settings_source"] == "explicit:1"

    def test_missing_gamma_is_usage_error(self, tmp_path):
        argv = [a for a in simulate_args(tmp_path)]
        i = argv.index("--gamma")
        del argv[i : i + 2]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_p2_at_gamma_zero_is_config_error(self, tmp_path, capsys):
        argv = simulate_args(tmp_path, **{"--protocol": "p2", "--gamma": "0.0"})
        assert main(argv) == 2
        assert "protocol 2 requires gamma > 0" in capsys.readouterr().err

    def test_bad_random_count(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(simulate_args(tmp_path, **{"--settings": "random:0"}))
        assert exc.value.code == 2

    def test_missing_settings_file(self, tmp_path, capsys):
        argv = simulate_args(tmp_path, **{"--settings": str(tmp_path / "nope.csv")})
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_settings_field(self, tmp_path, capsys):
        settings = tmp_path / "s.csv"
        settings.write_text(",".join(SETTINGS_CSV_HEADER) + "\n0,0,1,0.6,zero,0.8\n")
        assert main(simulate_args(tmp_path, **{"--settings": str(settings)})) == 2
        assert "error: settings CSV line 2: could not convert" in capsys.readouterr().err

    def test_csv_onto_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def sampled(*args):
            raise AssertionError("sampled before checking the paths")

        monkeypatch.setattr(cli, "run_experiment", sampled)
        out = tmp_path / "r.json"
        # the same file under another spelling is still the same file
        argv = simulate_args(tmp_path, **{"--out": str(out), "--csv": f"{tmp_path}/./r.json"})
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "name the same file" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_an_error(self, tmp_path, capsys):
        argv = simulate_args(tmp_path, **{"--out": str(tmp_path / "no-dir" / "r.json")})
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "wrote" not in captured.out

    def test_unwritable_csv_leaves_no_half_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        bad_csv = str(tmp_path / "no-dir" / "r.csv")
        argv = simulate_args(tmp_path, **{"--out": str(out), "--csv": bad_csv})
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "wrote" not in captured.out
        assert not out.exists()

    def test_schema_passes_its_metaschema(self):
        # simulate validates against the schema without re-checking the
        # schema itself, so that check lives here
        schema = report_schema()
        validator_for(schema).check_schema(schema)
        with pytest.raises(jsonschema.SchemaError):
            validator_for(schema).check_schema({**schema, "required": "records"})

    def test_report_failing_schema_exits_1(self, tmp_path, capsys, monkeypatch):
        real = cli.write_report

        def write_without_summary(*args):
            payload = real(*args)
            del payload["summary"]
            return payload

        monkeypatch.setattr(cli, "write_report", write_without_summary)
        assert main(simulate_args(tmp_path)) == 1
        assert "schema self-check" in capsys.readouterr().err


class TestGoldenReports:
    # SHA-256 of the JSON and CSV reports of a small run that crosses a chunk
    # boundary.  A change to these bytes is a report format or stream break:
    # bump the package version and pin the new digests.
    GOLDEN = {
        ("p1", "ortho"): (
            "0c215569ef767e53b85988848280cfe292ae3f96eff687919dff72ad0eff0140",
            "129dacd87350ab9a178a6896eeecacd8e954b712c3b56ef06af9f92cdedffd55",
        ),
        ("p1", "ortho-sign"): (
            "0733982073cdece95aa7a3c99397294c86482315cdbfa6160189258e3e4def4c",
            "129dacd87350ab9a178a6896eeecacd8e954b712c3b56ef06af9f92cdedffd55",
        ),
        ("p2", "ortho"): (
            "efa8faed7cbe623445531a592858afde3b2835065c2774e9419e9e07b76915d6",
            "549460180d6108776a25ed6a4d2321ee5c77d4634e20b1bbfcba7347feb948cd",
        ),
        ("tb", "normalize"): (
            "6e35763fada45b8215e8b73bed1749e0f2bcfd738cb9df1a934d48fb414fa895",
            "de340353a078f997f62d5f587e4cb76a0a489dd7c51af312ef69894db24d09be",
        ),
    }

    def test_version_matches_pyproject(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == __version__

    @staticmethod
    def golden_run(tmp_path, protocol, completion):
        """The JSON and CSV report bytes of the pinned run."""
        out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        argv = simulate_args(tmp_path, **{
            "--protocol": protocol, "--gamma": repr(PI8), "--settings": "random:3",
            "--rounds": str(CHUNK + 2048), "--seed": "20260816",
            "--completion": completion, "--out": str(out), "--csv": str(csv_path),
        })
        assert main(argv) == 0
        return out.read_bytes(), csv_path.read_bytes()

    @pytest.mark.parametrize("protocol,completion", sorted(GOLDEN))
    def test_report_digests(self, tmp_path, protocol, completion):
        reports = self.golden_run(tmp_path, protocol, completion)
        digests = tuple(hashlib.sha256(data).hexdigest() for data in reports)
        assert digests == self.GOLDEN[(protocol, completion)]

    @pytest.mark.parametrize("protocol", ["p1", "p2"])
    def test_ortho_sign_reports_are_ortho(self, tmp_path, protocol):
        # ortho-sign is sampled by ortho's rule: the same CSV, and a JSON
        # report that differs only in the completion it echoes
        ortho_json, ortho_csv = self.golden_run(tmp_path, protocol, "ortho")
        sign_json, sign_csv = self.golden_run(tmp_path, protocol, "ortho-sign")
        assert sign_csv == ortho_csv
        assert sign_json != ortho_json
        sign = json.loads(sign_json)
        assert sign["config"]["completion"] == "ortho-sign"
        sign["config"]["completion"] = "ortho"
        assert sign == json.loads(ortho_json)


class TestVerify:
    def test_flip_suite_passes(self, capsys):
        assert main(["verify", "flip"]) == 0
        out = capsys.readouterr().out
        assert "PASS flip-moments-exact" in out

    def test_epr2_single_gamma(self, capsys):
        assert main(["verify", "epr2", "--gamma", str(PI8), "--grid", "12"]) == 0
        assert "epr2-four-case-identity" in capsys.readouterr().out

    def test_mbox_suite(self, capsys):
        assert main(["verify", "mbox", "--rounds", "20000"]) == 0
        out = capsys.readouterr().out
        assert "PASS mbox-xor-grid" in out

    def test_epr2_rejects_gamma_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "epr2", "--gamma", "0.0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["flip", "--rounds", "-5"],  # would pass over -5 triples
            ["flip", "--rounds", "0"],  # would run the default silently
            ["mbox", "--rounds", "-3"],
            ["kernel", "--rounds", "1"],  # no standard error from one round
            ["epr2", "--grid", "5"],
            ["epr2", "--gamma", "2"],
            ["oracle", "--gamma", "-1"],
            ["oracle", "--gamma", "0", "--rounds", "2"],  # p2 needs gamma > 0
            ["mbox", "--seed", "-1"],  # numpy rejects a negative key
            ["flip", "--seed", "-1"],
            ["kernel", "--seed", str(2**64)],  # overflows a 64-bit stream key
            ["oracle", "--seed", str(2**64)],
        ],
        ids=" ".join,
    )
    def test_bad_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["flip", "--gamma", "0.3", "--rounds", "3"], "--gamma"),
            (["flip", "--grid", "500", "--rounds", "3"], "--grid"),
            (["epr2", "--gamma", "0.3", "--grid", "10", "--rounds", "7"], "--rounds"),
            (["epr2", "--gamma", "0.3", "--grid", "10", "--seed", "99"], "--seed"),
        ],
        ids=["flip --gamma", "flip --grid", "epr2 --rounds", "epr2 --seed"],
    )
    def test_flag_the_suite_does_not_read_is_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert f"does not read {flag}" in capsys.readouterr().err


class TestOracle:
    def test_prints_oracle_claim_residual(self, capsys):
        argv = [
            "oracle", "mu-average",
            "--protocol", "p1", "--gamma", "0.7853981634",
            "--a", "0,0,1", "--b", "0,0,1", "--branch", "pq+",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "oracle (normalize): 0.5" in out
        assert "claimed scalar product: 1.0" in out
        assert "residual: 0.5" in out

    def test_reflects_into_upper_hemisphere(self, capsys):
        argv = [
            "oracle", "mu-average",
            "--protocol", "p1", "--gamma", str(PI8),
            "--a", "0,0,-1", "--b", "0,0,1", "--branch", "pq+",
        ]
        assert main(argv) == 0
        assert "reflect" in capsys.readouterr().out

    def test_malformed_vector(self):
        argv = [
            "oracle", "mu-average",
            "--protocol", "p1", "--gamma", str(PI8),
            "--a", "1,2", "--b", "0,0,1", "--branch", "pq+",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_p2_needs_entanglement(self):
        argv = [
            "oracle", "mu-average",
            "--protocol", "p2", "--gamma", "0.0",
            "--a", "0,0,1", "--b", "0,0,1", "--branch", "pq+",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

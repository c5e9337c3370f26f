import hashlib
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest

from mboxsim import __version__
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


class TestGoldenReports:
    # SHA-256 of the JSON and CSV reports of a small run that crosses a chunk
    # boundary.  A change to these bytes is a report format or stream break:
    # bump the package version and pin the new digests.
    GOLDEN = {
        ("p1", "ortho-sign"): (
            "38f94ebe5c18dbb05eecebd44291ac17fe6872fe35c0a448037a837f15fea3b3",
            "18a6448645db664a4aa1730fa5019b0a829e5c8d94824c4e10e83ecb01853d55",
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

    @pytest.mark.parametrize("protocol,completion", sorted(GOLDEN))
    def test_report_digests(self, tmp_path, protocol, completion):
        out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        argv = simulate_args(tmp_path, **{
            "--protocol": protocol, "--gamma": repr(PI8), "--settings": "random:3",
            "--rounds": str(CHUNK + 2048), "--seed": "20260816",
            "--completion": completion, "--out": str(out), "--csv": str(csv_path),
        })
        assert main(argv) == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, csv_path))
        assert digests == self.GOLDEN[(protocol, completion)]


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

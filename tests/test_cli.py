import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from mboxsim import __version__, cli, runtime
from mboxsim.cli import main, report_schema
from mboxsim.geometry import Completion
from mboxsim.protocols import STREAM
from mboxsim.runtime import (
    CHUNK,
    SETTINGS_CSV_HEADER,
    ExperimentConfig,
    run_experiment,
)

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
        payload["config"]["stream"] = "philox/chunk65536/row24"  # the 0.15 layout
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

    def test_target_not_a_distribution_is_an_error_before_sampling(self, tmp_path, capsys, monkeypatch):
        # the smallest entry of this pair's nonlocal target is near -1e-8 at
        # gamma = 1e-9, and -4.07e-12 at gamma = 1e-7: between -1e-9 and the
        # -1e-12 bound, and refused all the same
        def sampled(*args):
            raise AssertionError("sampled before computing the targets")

        monkeypatch.setattr(runtime, "run_batch", sampled)
        settings = tmp_path / "s.csv"
        settings.write_text(",".join(SETTINGS_CSV_HEADER) + "\n0.3122,0,0.95,-0.3122,0,0.95\n")
        out = tmp_path / "r.json"
        for gamma in ("1e-9", "1e-7"):
            argv = simulate_args(tmp_path, **{
                "--protocol": "p2", "--gamma": gamma, "--rounds": "1000",
                "--settings": str(settings), "--out": str(out),
            })
            with pytest.warns(UserWarning, match="normalizing"):
                assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: negative probability entry"), gamma
            assert "Traceback" not in captured.err and "wrote" not in captured.out
            assert not out.exists()

    def test_refused_target_names_its_setting(self, tmp_path, capsys, monkeypatch):
        # epr2's grid pair at gamma = 1e-6: the nonlocal target's smallest
        # entry is -2.8e-12, and the error says which setting it belongs to
        def sampled(*args):
            raise AssertionError("sampled before computing the targets")

        monkeypatch.setattr(runtime, "run_batch", sampled)
        a = "0.31224989991991997,0,0.95"
        b = "-0.31224989991991997,3.823958404710114e-17,0.95"
        settings = tmp_path / "s.csv"
        settings.write_text(",".join(SETTINGS_CSV_HEADER) + f"\n0,0,1,0.6,0,0.8\n{a},{b}\n")
        argv = simulate_args(tmp_path, **{
            "--protocol": "p2", "--gamma": "1e-6", "--rounds": "4000000",
            "--settings": str(settings),
        })
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: negative probability entry -2.82"), err
        assert (
            "in the target of setting 1: a = [0.31224989991991997, 0.0, 0.95], "
            "b = [-0.31224989991991997, 3.823958404710114e-17, 0.95]"
        ) in err

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

    def test_file_size_limit_leaves_no_half_report(self, tmp_path):
        # a child whose files may not grow past 1000 bytes fails mid-report
        # (EFBIG; the report is about 1.5 kB), as on a full disk, and must
        # not leave the truncated JSON
        pytest.importorskip("resource")
        code = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))\n"
            "from mboxsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = tmp_path / "r.json"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-c", code, *simulate_args(tmp_path, **{"--out": str(out)})],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ") and "wrote" not in done.stdout
        assert not out.exists()

    def test_schema_passes_its_metaschema(self):
        # simulate validates against the schema without re-checking the
        # schema itself, so that check lives here
        schema = report_schema()
        validator_for(schema).check_schema(schema)
        with pytest.raises(jsonschema.SchemaError):
            validator_for(schema).check_schema({**schema, "required": "records"})

    def test_report_failing_schema_exits_1(self, tmp_path, capsys, monkeypatch):
        # the self-check sees the payload without its summary: it fails, and
        # neither report file is written
        real = cli._report_validator()

        def check_without_summary(payload):
            real({key: value for key, value in payload.items() if key != "summary"})

        monkeypatch.setattr(cli, "_report_validator", lambda: check_without_summary)
        argv = simulate_args(tmp_path, **{"--csv": str(tmp_path / "r.csv")})
        assert main(argv) == 1
        assert "schema self-check" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "r.csv").exists()


class TestGoldenReports:
    # SHA-256 of the JSON and CSV reports of a small run that crosses a chunk
    # boundary.  A change to these bytes is a report format or stream break:
    # bump the package version and pin the new digests (last in 0.16.0).
    GOLDEN = {
        ("p1", "normalize"): (
            "0921268c6f0f0e7738e0c90f4c08580c7730aa171a84d1cbecc16ef218997ab1",
            "ac58993d62bc352763eb646d9ec3d64c8a3438bb7f170d0ff2486a232943f720",
        ),
        ("p1", "ortho"): (
            "75c9b4e7097a3db95aa5d719911f275e05270ff05e40ed0f67ecf22941a13943",
            "e9f166e86142261dc6e8f64281e314be7e51e77ad405e425f69452cffd378313",
        ),
        ("p1", "ortho-sign"): (
            "d7e90d4f57de483bde832611bae2e2d813ca6cd5817822f60f2f4bea65a52358",
            "e9f166e86142261dc6e8f64281e314be7e51e77ad405e425f69452cffd378313",
        ),
        ("p2", "normalize"): (
            "f5bd66332e38be52ff075f66f9f9b7f68b66a7166a52ff9e189008e6b79863d6",
            "40d6da6118adb0df5bbecee5c95b6d85cc4cefdd1854d3a416d3f364c01a9daa",
        ),
        ("p2", "ortho"): (
            "6fb9d402f0421190543170cb63361e94d7b4e314152e472193f169087db95b8e",
            "ca22dda79faa57a16471cabeacf42d87951c059f88669f619bda89aeb2b9d673",
        ),
        ("tb", "normalize"): (
            "fb639fdcbb820fbb50484645675be70723d0694dc8c1951cfa2f3bc8d27cc866",
            "50f1f6ca4c56003703807faf2ec0520927cdcae62df8984c83aa864923a0d3e3",
        ),
    }

    def test_version_matches_pyproject(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == __version__

    # Small runs, at least one per protocol, on explicit settings at the
    # edges: a tie a_z == b_z, negative z components and a z-axis setting.
    # At gamma = 0 the z-axis setting's alternate axis is degenerate,
    # 0.7853981634 is pi/4 in decimal, and a single round leaves pre_flip
    # null.  The digests are 0.16.0's bytes: PCG64DXSM rows, one-line JSON.
    EDGE_SETTINGS = "0.6,0,0.8,0,0.6,0.8\n0.6,0,-0.8,-0.48,0.6,-0.64\n0,0,1,0.8,0,-0.6\n"
    EDGE = {
        ("p1", "0.0", 3000, "normalize"): (
            "8c12258b8855618e3a64d8101a61388c4b112121fceb454ae531f9fcc8e494f5",
            "477ca23aa8064874a2dd4bf18ba8f753fce06433cfd6020bdcd8fe7604aa63cf",
        ),
        ("p1", "0.7853981634", 3000, "ortho"): (
            "3bd287ff422b612060391c105dac4f909ebc1a68b2285b6cbd8b1e013998b944",
            "a7a6bcc2dcb59c465c55c9554e8fc7983c5fdc5eebf2fa44d6ec8a96a0f891b9",
        ),
        ("p2", "0.7853981634", 3000, "normalize"): (
            "13129a07bf15a130070a44f204ed86a4d7454654ce600a7e3c1dad82a3697dfe",
            "13e917f389b87af432588d32be7af6f7e861e3f077bfe3987a57fb02590625d7",
        ),
        ("p2", repr(PI8), 1, "ortho"): (
            "12d0cd13591339bf95321270bfd7bfa044a0e4a9cef368f7b6a1d19042ca650d",
            "48afe3c416f0bc9b2d2f88f72ec4d0d214d2f09ddfaa9c2ee69a51d282a9b906",
        ),
        ("tb", "0.0", 3000, "normalize"): (
            "be80b61b32ea3cd75a262ff061bffd41181fc8d617a5ebe48d4f1e394e2874fb",
            "fb3f6fa0fe3ec9effe2dacaff75ada14844724d54b689b68d1e7c90a65f61035",
        ),
    }

    @staticmethod
    def golden_run(
        tmp_path, protocol, completion, gamma=repr(PI8), settings="random:3", rounds=CHUNK + 2048
    ):
        """The JSON and CSV report bytes of a pinned run."""
        out, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
        argv = simulate_args(tmp_path, **{
            "--protocol": protocol, "--gamma": gamma, "--settings": settings,
            "--rounds": str(rounds), "--seed": "20260816",
            "--completion": completion, "--out": str(out), "--csv": str(csv_path),
        })
        assert main(argv) == 0
        return out.read_bytes(), csv_path.read_bytes()

    @staticmethod
    def digests(reports):
        return tuple(hashlib.sha256(data).hexdigest() for data in reports)

    @pytest.mark.parametrize("protocol,completion", sorted(GOLDEN))
    def test_report_digests(self, tmp_path, protocol, completion):
        reports = self.golden_run(tmp_path, protocol, completion)
        assert self.digests(reports) == self.GOLDEN[(protocol, completion)]

    @pytest.mark.parametrize("protocol,gamma,rounds,completion", sorted(EDGE))
    def test_edge_report_digests(self, tmp_path, protocol, gamma, rounds, completion):
        settings = tmp_path / "s.csv"
        settings.write_text(",".join(SETTINGS_CSV_HEADER) + "\n" + self.EDGE_SETTINGS)
        reports = self.golden_run(tmp_path, protocol, completion, gamma, str(settings), rounds)
        assert self.digests(reports) == self.EDGE[(protocol, gamma, rounds, completion)]

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


# Each node of a report is set to each of these in turn by the mutation corpus.
MUTANT_VALUES = (
    None, True, False, 0, 1, -1, 7, -3, 1.0, 0.5, -0.5, 1.5, math.nan, math.inf,
    "", "p1", "random:2", [], [0.0, 0.0, 1.0], {},
)


def mutations(doc):
    """Mutate doc in place, yield a label for each mutant, and restore it.

    Every entry of every object and array is set to each MUTANT_VALUES
    member and deleted, and every object gains an extra key and every array
    a copy of its last item.
    """
    containers = []

    def walk(x, where):
        if isinstance(x, (dict, list)):
            containers.append((x, where))
            for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
                walk(v, f"{where}/{k}")

    walk(doc, "")
    for c, where in containers:
        for k in list(c) if isinstance(c, dict) else range(len(c)):
            old = c[k]
            for v in MUTANT_VALUES:
                c[k] = v
                yield f"{where}/{k} = {v!r}"
            if isinstance(c, dict):
                del c[k]
                yield f"del {where}/{k}"
                c[k] = old
            else:
                c.pop(k)
                yield f"del {where}/{k}"
                c.insert(k, old)
        if isinstance(c, dict):
            c["extra"] = 0
            yield f"{where}/extra = 0"
            del c["extra"]
        else:
            c.append(c[-1] if c else 0)
            yield f"{where} + one item"
            c.pop()


def passes(check, doc) -> bool:
    try:
        check(doc)
    except jsonschema.ValidationError:
        return False
    return True


def small_report(protocol, rounds) -> dict:
    """A one-record report as JSON loads it back."""
    config = ExperimentConfig(
        protocol=protocol, gamma=0.7853981634, rounds=rounds, seed=5, random_settings=1
    )
    return json.loads(json.dumps(run_experiment(config)))


class TestReportCheck:
    """simulate's self-check, compiled from the schema, against jsonschema."""

    SCHEMA = report_schema()
    IS_VALID = validator_for(SCHEMA)(SCHEMA).is_valid
    EDGE_ROWS = TestGoldenReports.EDGE_SETTINGS.splitlines()

    # p1 over two rounds reports a pre_flip object, p2 over one round null.
    @pytest.mark.parametrize("protocol,rounds", [("p1", 2), ("p2", 1)])
    def test_agrees_with_jsonschema_on_mutants(self, protocol, rounds):
        check = cli._compile(self.SCHEMA)
        doc = small_report(protocol, rounds)
        valid = []
        for label in mutations(doc):
            valid.append(self.IS_VALID(doc))
            assert passes(check, doc) == valid[-1], label
        for v in MUTANT_VALUES:  # the whole document replaced
            assert not passes(check, v) and not self.IS_VALID(v)
        # the corpus holds mutants on both sides of the line
        assert 100 < sum(valid) < len(valid) - 500

    def test_violation_names_path_and_keyword(self):
        doc = small_report("p1", 2)
        doc["records"][0]["tv"] = 1.5
        with pytest.raises(jsonschema.ValidationError) as exc:
            cli._report_validator()(doc)
        assert exc.value.message == (
            "$.records[0].tv: maximum: 1.5 is greater than the maximum of 1"
        )

    REFUSED = {
        "multipleOf": (("properties", "config", "properties", "gamma"), "multipleOf", 0.5),
        "format": (("properties", "config", "properties", "settings_source"), "format", "uri"),
        "additionalProperties {}": (("properties", "summary"), "additionalProperties", {}),
        "empty type list": (("properties", "config", "properties", "gamma"), "type", []),
        "type list with a repeat": (
            ("properties", "config", "properties", "gamma"), "type", ["number", "number"],
        ),
        "oneOf": (
            ("$defs", "record", "properties", "pre_flip"), "oneOf", [{"type": "null"}, {}],
        ),
        "const": (("properties", "config", "properties", "stream"), "const", STREAM),
        "enum with a bool": (
            ("$defs", "record", "properties", "branches", "items", "properties", "p"),
            "enum", [True, 1],
        ),
        "remote $ref": (("properties", "records", "items"), "$ref", "record.json#/x"),
        "dangling $ref": (("properties", "records", "items"), "$ref", "#/$defs/nothing"),
        "draft-07": ((), "$schema", "http://json-schema.org/draft-07/schema#"),
    }

    @pytest.mark.parametrize("edit", sorted(REFUSED))
    def test_unsupported_form_is_refused_at_compile_time(self, edit):
        path, key, value = self.REFUSED[edit]
        schema = report_schema()
        node = schema
        for part in path:
            node = node[part]
        node[key] = value
        with pytest.raises(jsonschema.SchemaError):
            cli._compile(schema)

    def test_self_referring_definition_fails_to_compile(self):
        # refs compile eagerly, so a cycle cannot leave a node unchecked
        schema = report_schema()
        schema["$defs"]["record"]["properties"]["branches"]["items"] = {"$ref": "#/$defs/record"}
        with pytest.raises(RecursionError):
            cli._compile(schema)

    @settings(max_examples=30, deadline=None)
    @given(
        protocol=st.sampled_from(("p1", "p2", "tb")),
        completion=st.sampled_from([c.value for c in Completion]),
        gamma=st.sampled_from(("0.0", "0.7853981634")),
        rounds=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
        more_rows=st.lists(st.sampled_from(EDGE_ROWS[1:]), max_size=2),
    )
    @example(protocol="p2", completion="ortho", gamma="0.7853981634", rounds=1, seed=0, more_rows=[])
    @example(protocol="p1", completion="normalize", gamma="0.0", rounds=3, seed=0, more_rows=[])
    def test_edge_reports_pass_both_checks(self, protocol, completion, gamma, rounds, seed, more_rows):
        # every run has the tie a_z == b_z (the first edge row); p2 needs gamma > 0
        assume(protocol != "p2" or gamma != "0.0")
        with tempfile.TemporaryDirectory() as tmp:
            settings_csv = Path(tmp) / "s.csv"
            settings_csv.write_text(
                "\n".join([",".join(SETTINGS_CSV_HEADER), self.EDGE_ROWS[0], *more_rows]) + "\n"
            )
            argv = simulate_args(Path(tmp), **{
                "--protocol": protocol, "--gamma": gamma, "--settings": str(settings_csv),
                "--rounds": str(rounds), "--seed": str(seed), "--completion": completion,
            })
            assert main(argv) == 0
            payload = json.loads((Path(tmp) / "r.json").read_text())
        assert self.IS_VALID(payload)
        cli._report_validator()(payload)
        # both of pre_flip's types, null and object; at rounds = 1, a branch seen once
        for record in payload["records"]:
            assert (record["pre_flip"] is None) == (rounds == 1)
            branched = 0 if protocol == "tb" else rounds
            assert sum(b["n"] for b in record["branches"]) == branched


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
            ["oracle", "--rounds", "1"],  # no standard error from one round
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
        "argv,message",
        [
            (["flip", "--rounds", "0"], "need --rounds >= 1, got 0"),  # suite_flip's trials
            (["epr2", "--grid", "5"], "need --grid >= 10, got 5"),  # suite_epr2's grid_n
        ],
        ids=["flip --rounds", "epr2 --grid"],
    )
    def test_error_names_the_flag_typed(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "protocol,gamma,a,b,branch",
        [("p1", "0", "0,0,1", "1,0,0", "pq-"), ("p1", "1e-12", "1,0,0", "0,0,1", "pq+"),
         ("p2", "1e-12", "1,0,0", "0,0,1", "pq-")],
    )
    def test_degenerate_axis_leaves_the_claim_undefined(self, capsys, protocol, gamma, a, b, branch):
        # the engine falls back to the setting, so the oracle is defined there
        argv = [
            "oracle", "mu-average", "--protocol", protocol, "--gamma", gamma,
            "--a", a, "--b", b, "--branch", branch,
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("oracle (normalize): ")
        assert lines[1].startswith("claimed scalar product: undefined (axis construction degenerate")
        assert len(lines) == 2

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

    @pytest.mark.parametrize("flag, vec", [("--a", "nan,0,1"), ("--b", "0,inf,0")])
    def test_non_finite_vector_exits_2(self, capsys, flag, vec):
        args = {"--a": "0,0,1", "--b": "0,0,1", flag: vec}
        argv = [
            "oracle", "mu-average", "--protocol", "p1", "--gamma", str(PI8),
            "--a", args["--a"], "--b", args["--b"], "--branch", "pq+",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{flag} is not a direction" in capsys.readouterr().err

    def test_p2_needs_entanglement(self):
        argv = [
            "oracle", "mu-average",
            "--protocol", "p2", "--gamma", "0.0",
            "--a", "0,0,1", "--b", "0,0,1", "--branch", "pq+",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

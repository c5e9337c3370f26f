import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mboxsim
from mboxsim import protocols, runtime
from mboxsim.cli import report_schema
from mboxsim.geometry import Completion
from mboxsim.quantum import EntanglementParam
from mboxsim.runtime import (
    CHUNK,
    ExperimentConfig,
    SETTINGS_CSV_HEADER,
    load_settings_csv,
    report_csv_rows,
    report_to_json_dict,
    resolve_settings,
    round_uniform_block,
    run_experiment,
    sample_settings,
    write_report,
)

PI8 = math.pi / 8
PI4 = math.pi / 4

Z_PAIR = (((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)),)


def tb_config(**overrides):
    base = dict(
        protocol="tb", gamma=PI4, rounds=1000, seed=7,
        settings=(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            tb_config(protocol="p9")
        with pytest.raises(ValueError, match="rounds"):
            tb_config(rounds=0)
        with pytest.raises(ValueError, match="seed"):
            tb_config(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            tb_config(seed=2**64)
        with pytest.raises(ValueError, match="protocol 2 requires gamma > 0"):
            tb_config(protocol="p2", gamma=0.0)
        with pytest.raises(ValueError):
            tb_config(gamma=1.0)
        with pytest.raises(ValueError):
            tb_config(completion="mirror")
        with pytest.raises(ValueError, match="exactly one"):
            tb_config(settings=(), random_settings=0)
        with pytest.raises(ValueError, match="exactly one"):
            tb_config(random_settings=3)
        with pytest.raises(ValueError, match="workers"):
            tb_config(workers=0)

    def test_settings_source(self):
        assert tb_config().settings_source == "explicit:1"
        assert tb_config(settings=(), random_settings=5).settings_source == "random:5"

    def test_settings_frozen_as_floats(self):
        config = tb_config(settings=(((0, 0, 1), [1, 0, 0]),))
        assert config.settings == (((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),)


class TestUniformStream:
    @settings(max_examples=25, deadline=None)
    @given(boundary=st.integers(0, 2), offset=st.integers(-3000, 3000), data=st.data())
    def test_rows_are_addressable(self, boundary, offset, data):
        # two requests split anywhere inside one chunk equal one; spans start
        # and end near a chunk boundary as often as inside
        start = max(0, boundary * CHUNK + offset)
        room = CHUNK - start % CHUNK
        count = data.draw(st.integers(0, min(6000, room)), label="count")
        split = data.draw(st.integers(0, count), label="split")
        whole = round_uniform_block(9, 0, start, count)
        parts = np.vstack(
            [
                round_uniform_block(9, 0, start, split),
                round_uniform_block(9, 0, start + split, count - split),
            ]
        )
        assert whole.shape == (count, protocols.UNIFORMS_PER_ROUND)
        assert np.array_equal(whole, parts)

    def test_crossing_span_is_refused(self):
        with pytest.raises(ValueError, match="cross a chunk boundary"):
            round_uniform_block(9, 0, CHUNK - 5, 6)
        with pytest.raises(ValueError, match="cross a chunk boundary"):
            round_uniform_block(9, 0, 0, CHUNK + 1)
        # a span that ends on the boundary stays inside its chunk
        assert round_uniform_block(9, 0, CHUNK - 5, 5).shape == (5, protocols.UNIFORMS_PER_ROUND)

    def test_settings_index_separates_streams(self):
        a = round_uniform_block(9, 0, 0, 4)
        b = round_uniform_block(9, 1, 0, 4)
        assert not np.array_equal(a, b)

    def test_streams_of_one_seed_are_distinct(self):
        # no value repeats across the round streams of a (setting, chunk)
        # grid and the settings stream of the same seed
        rows = [
            round_uniform_block(9, setting, chunk * CHUNK, 4)
            for setting in (0, 1, 2, 7)
            for chunk in (0, 1, 2, 5)
        ]
        rows.append(protocols.seeded_generator(9).random((4, protocols.UNIFORMS_PER_ROUND)))
        values = np.concatenate(rows).ravel()
        assert np.unique(values).size == values.size

    def test_validation(self):
        with pytest.raises(ValueError):
            round_uniform_block(9, 0, -1, 4)
        with pytest.raises(ValueError):
            round_uniform_block(9, 2**32 - 1, 0, 4)


class TestResolveSettings:
    def test_random_is_seeded_by_config(self):
        config = tb_config(settings=(), random_settings=4)
        one = resolve_settings(config)
        two = resolve_settings(config)
        assert all(np.array_equal(a1, a2) for (a1, _), (a2, _) in zip(one, two))
        other = resolve_settings(tb_config(settings=(), random_settings=4, seed=8))
        assert not np.array_equal(one[0][0], other[0][0])

    def test_explicit_must_be_unit(self):
        with pytest.raises(ValueError, match="explicit setting 0: vector norm 2"):
            tb_config(settings=(((0.0, 0.0, 2.0), (1.0, 0.0, 0.0)),))

    @pytest.mark.parametrize("settings", [
        ((1, 2),),  # numbers, not vectors
        (((0.0, 0.0, 1.0), (1.0, 0.0)),),  # b has two entries
        (((0.0, 0.0, 1.0),) * 3,),  # three vectors
    ])
    def test_explicit_must_be_pairs_of_3_vectors(self, settings):
        with pytest.raises(ValueError, match="explicit setting 0"):
            tb_config(settings=settings)


class TestLoadSettingsCsv:
    def write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path / "s.csv",
            [",".join(SETTINGS_CSV_HEADER), "0,0,1,1,0,0", "", "0.6,0,0.8,0,0.6,0.8"],
        )
        pairs = load_settings_csv(path)
        assert len(pairs) == 2
        assert pairs[0][0] == pytest.approx([0.0, 0.0, 1.0])
        assert pairs[1][1] == pytest.approx([0.0, 0.6, 0.8])

    def test_header_is_mandatory(self, tmp_path):
        path = self.write(tmp_path / "s.csv", ["ax,ay,az,bx,by,bz2", "0,0,1,1,0,0"])
        with pytest.raises(ValueError, match="header"):
            load_settings_csv(path)

    def test_field_count(self, tmp_path):
        path = self.write(tmp_path / "s.csv", [",".join(SETTINGS_CSV_HEADER), "0,0,1,1,0"])
        with pytest.raises(ValueError, match="6 fields"):
            load_settings_csv(path)

    def test_non_numeric_field_names_its_line(self, tmp_path):
        path = self.write(
            tmp_path / "s.csv", [",".join(SETTINGS_CSV_HEADER), "0,0,1,1,0,0", "0,0,1,x,0,0"]
        )
        with pytest.raises(ValueError, match="^settings CSV line 3: could not convert .*'x'"):
            load_settings_csv(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = self.write(tmp_path / "s.csv", [",".join(SETTINGS_CSV_HEADER), "0,0,0,1,0,0"])
        with pytest.raises(ValueError, match="not a direction"):
            load_settings_csv(path)

    def test_normalizes_with_warning(self, tmp_path):
        path = self.write(tmp_path / "s.csv", [",".join(SETTINGS_CSV_HEADER), "0,0,1.01,1,0,0"])
        with pytest.warns(UserWarning, match="normalizing"):
            pairs = load_settings_csv(path)
        assert pairs[0][0] == pytest.approx([0.0, 0.0, 1.0])

    def test_no_rows_rejected(self, tmp_path):
        path = self.write(tmp_path / "s.csv", [",".join(SETTINGS_CSV_HEADER)])
        with pytest.raises(ValueError, match="no setting rows"):
            load_settings_csv(path)


class TestRunExperiment:
    def test_single_round(self):
        config = ExperimentConfig(
            protocol="p1", gamma=PI8, rounds=1, seed=3, settings=Z_PAIR
        )
        report = run_experiment(config)
        assert len(report.records) == 1
        rec = report.records[0]
        assert sum(rec["counts"]) == 1
        assert rec["pre_flip"] is None
        assert report_to_json_dict(report)["records"] == [rec]

    def test_deterministic(self):
        config = ExperimentConfig(
            protocol="p2", gamma=PI8, rounds=5000, seed=11,
            settings=(), random_settings=2, completion="ortho",
        )
        one = json.dumps(report_to_json_dict(run_experiment(config)), sort_keys=True)
        two = json.dumps(report_to_json_dict(run_experiment(config)), sort_keys=True)
        assert one == two

    def test_worker_count_is_invisible(self):
        # rounds straddle a chunk boundary so scheduling actually differs
        rounds = CHUNK + 1000
        kwargs = dict(
            protocol="p1", gamma=PI8, rounds=rounds, seed=13,
            settings=(), random_settings=2,
        )
        serial = run_experiment(ExperimentConfig(**kwargs, workers=1))
        threaded = run_experiment(ExperimentConfig(**kwargs, workers=4))
        assert json.dumps(report_to_json_dict(serial), sort_keys=True) == json.dumps(
            report_to_json_dict(threaded), sort_keys=True
        )

    def test_tb_statistics_match_target(self):
        config = tb_config(rounds=50_000)
        report = run_experiment(config)
        rec = report.records[0]
        assert rec["target"] == pytest.approx([0.25] * 4)
        assert rec["max_abs_z"] <= 5.0

    def test_settings_echoed(self):
        report = run_experiment(tb_config())
        assert report.records[0]["a"] == [0.0, 0.0, 1.0]
        assert report.records[0]["b"] == [1.0, 0.0, 0.0]
        assert report.config.settings_source == "explicit:1"


class TestSampleSettings:
    def test_pair_index_addresses_the_setting_stream(self):
        # pair i of a call reads setting i, so sampling the first k + 1
        # settings in one call reproduces run_experiment's record k
        k = 2
        config = ExperimentConfig(
            protocol="p2", gamma=PI8, rounds=3000, seed=17,
            settings=(), random_settings=k + 2, completion="ortho",
        )
        report = run_experiment(config)
        pairs = resolve_settings(config)
        sampled = sample_settings(
            EntanglementParam(PI8), pairs[: k + 1], Completion.ORTHO, "p2", 3000, 17
        )
        assert sampled[k].counts == report.records[k]["counts"]
        assert sampled[k].branches == {
            (b["p"], b["q"]): (b["n"], round(b["corr_mean"] * b["n"]))
            for b in report.records[k]["branches"]
        }
        # the same pair sampled first reads setting 0's stream instead
        [first] = sample_settings(
            EntanglementParam(PI8), [pairs[k]], Completion.ORTHO, "p2", 3000, 17
        )
        assert not np.array_equal(first.hist, sampled[k].hist)

    def test_worker_count_is_invisible(self):
        # CHUNK + 5 rounds make two chunks per pair, so the pool has four tasks
        rounds = CHUNK + 5
        pairs = resolve_settings(tb_config(settings=(), random_settings=2))
        args = (EntanglementParam(PI8), pairs, Completion.NORMALIZE, "p1", rounds, 21)
        serial = sample_settings(*args, workers=1)
        pooled = sample_settings(*args, workers=2)
        assert [s.n for s in serial] == [rounds, rounds]
        assert all(np.array_equal(s.hist, p.hist) for s, p in zip(serial, pooled))

    # (sub-block rows, rounds): a sub-block of 1 or 7 rows makes a call per
    # few rounds, so it gets a short request; the others cross a chunk
    # boundary, and 40 000 rows leave a short last sub-block in a full chunk.
    @settings(max_examples=20, deadline=None)
    @given(
        protocol=st.sampled_from(("p1", "p2", "tb")),
        split=st.one_of(
            st.tuples(st.sampled_from((1, 7)), st.integers(1, 40)),
            st.tuples(
                st.sampled_from((4096, 16384, 40_000, CHUNK)),
                st.integers(CHUNK // 2, CHUNK + 2000),
            ),
        ),
        workers=st.sampled_from((1, 2)),
    )
    def test_histogram_does_not_depend_on_the_split(self, protocol, split, workers):
        sub_block, rounds = split
        pairs = resolve_settings(tb_config(settings=(), random_settings=2, seed=5))
        args = (EntanglementParam(PI8), pairs, Completion.ORTHO, protocol, rounds, 23)
        with pytest.MonkeyPatch.context() as mp:
            # the reference draws and runs each chunk whole, on this thread
            mp.setattr(runtime, "SUB_BLOCK", CHUNK)
            whole = sample_settings(*args, workers=1)
            mp.setattr(runtime, "SUB_BLOCK", sub_block)
            split_up = sample_settings(*args, workers=workers)
        assert [s.n for s in split_up] == [rounds, rounds]
        assert all(np.array_equal(w.hist, s.hist) for w, s in zip(whole, split_up))

    def test_shared_direction_tables_under_thread_switching(self, monkeypatch):
        # more workers than cores, switching often, all missing the table
        # cache at once: the histograms still equal the serial ones
        pairs = resolve_settings(tb_config(settings=(), random_settings=4, seed=8))
        args = (EntanglementParam(PI8), pairs, Completion.ORTHO, "p2", CHUNK + 100, 29)
        monkeypatch.setattr(runtime, "SUB_BLOCK", 4096)
        serial = sample_settings(*args, workers=1)
        protocols._branch_tables.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = sample_settings(*args, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(s.hist, p.hist) for s, p in zip(serial, pooled))

    def test_one_chunk_stays_on_the_calling_thread(self, monkeypatch):
        # a pool thread would cost its own allocator arena for nothing
        def no_pool(workers):
            raise AssertionError("a one-chunk request reached the pool")

        monkeypatch.setattr(runtime, "_pool", no_pool)
        pairs = resolve_settings(tb_config())
        args = (EntanglementParam(PI8), pairs, Completion.NORMALIZE, "p1", CHUNK, 3)
        [stats] = sample_settings(*args, workers=2)
        assert stats.n == CHUNK

    def test_runtime_does_not_import_verify(self):
        # verify samples through runtime, never the other way round
        code = "import sys, mboxsim.runtime; print('mboxsim.verify' in sys.modules)"
        src = str(Path(mboxsim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"

    def test_only_protocols_builds_a_bit_generator(self):
        # every seeded stream goes through protocols' one seed check: the
        # settings stream on Philox, the round streams on PCG64DXSM
        package = Path(mboxsim.__file__).parent
        for generator in ("np.random.Philox(", "np.random.PCG64DXSM("):
            keyed = sorted(f.name for f in package.glob("*.py") if generator in f.read_text())
            assert keyed == ["protocols.py"], generator


class _FullDisk:
    """A text file that takes `room` characters, then fails as a full disk does."""

    def __init__(self, fh, room: int):
        self.fh = fh
        self.room = room

    def write(self, text: str) -> int:
        if len(text) > self.room:
            self.fh.write(text[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestMemory:
    """tracemalloc peaks, numpy's buffers included, of the sampler's draws."""

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("protocol", ["p1", "p2", "tb"])
    def test_one_chunk_peaks_below_8_mib(self, protocol):
        # a whole chunk's rows alone are 12 MiB; sub-blocks keep a few MiB live
        pairs = resolve_settings(tb_config())
        args = (EntanglementParam(PI8), pairs, Completion.NORMALIZE, protocol, CHUNK, 3)
        assert self._peak(lambda: sample_settings(*args, workers=1)) < 8 * 2**20

    def test_unaligned_request_draws_only_its_rows(self):
        # five rows are 960 bytes; drawing the chunk's prefix would be 12 MiB
        assert self._peak(lambda: round_uniform_block(9, 0, CHUNK - 5, 5)) < 64 * 2**10


class TestWriteReport:
    @pytest.mark.parametrize("full", ["json", "csv"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, full):
        # a write that fails part way removes every file the call opened
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        report = run_experiment(tb_config())

        def open_on_full_disk(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return _FullDisk(fh, 100) if Path(path).suffix == f".{full}" else fh

        monkeypatch.setattr(runtime, "open", open_on_full_disk, raising=False)
        with pytest.raises(OSError) as failed:
            write_report(report, out, csv_path)
        assert failed.value.errno == errno.ENOSPC
        assert not out.exists() and not csv_path.exists()

    def test_json_and_csv(self, tmp_path):
        config = ExperimentConfig(
            protocol="p1", gamma=PI8, rounds=2000, seed=5,
            settings=(), random_settings=3,
        )
        report = run_experiment(config)
        out = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        payload = write_report(report, out, csv_path)
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        jsonschema.validate(on_disk, report_schema())
        header, rows = report_csv_rows(report)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(header)
        assert len(lines) == 1 + len(rows) == 4

    def test_payload_bytes_are_stable(self, tmp_path):
        report = run_experiment(tb_config())
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        write_report(report, one)
        write_report(report, two)
        assert one.read_bytes() == two.read_bytes()

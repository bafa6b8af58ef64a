import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest

import wml.cli
from wml.cli import main
from wml.surfaces import build_surface, enumerate_matchings
from wml.words import parse


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture
def run():
    """``run(argv)``: ``main(argv)`` with stdout and stderr captured."""
    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(argv)
            except SystemExit as exc:
                code = exc.code
        return Result(code, out.getvalue(), err.getvalue())
    return invoke


def payload(result):
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)


class TestParse:
    def test_commutator(self, run):
        data = payload(run(["parse", "[x,y]", "--rank", "2"]))
        assert data["letters"] == [1, 2, -1, -2]
        assert data["cyclic_core"] == data["word"]

    def test_parse_error_exit_code(self, run):
        result = run(["parse", "[x,y", "--rank", "2"])
        assert result.exit_code == 2
        assert result.stderr.startswith("parse error: ")

    def test_long_digit_run_exit_code(self, run):
        result = run(["parse", "x^" + "9" * 5000])
        assert result.exit_code == 2
        assert result.stderr == \
            "parse error: number longer than 640 digits (at position 2)\n"

    @pytest.mark.parametrize("text", [
        "(" * 1200 + "x" + ")" * 1200,
        "[" * 400 + "x" + ",y]" * 400,
    ], ids=["parentheses", "commutators"])
    def test_deep_nesting_exit_code(self, run, text):
        result = run(["parse", text])
        assert result.exit_code == 2
        assert result.stderr == "parse error: nesting deeper than 100 " \
            "brackets (at position 100)\n"

    def test_rank_violation_exit_code(self, run):
        result = run(["parse", "y", "--rank", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("argv", [
        ["parse", "1", "--rank", "-1"],
        ["invariants", "1", "--rank", "-3", "--no-cache"],
        ["moment", "1", "-T", "1", "--mc", "--rank", "-1", "--n", "3",
         "--samples", "10"],
        ["verify", "1", "--rank", "-1", "-T", "1"],
        ["surfaces", "1", "--rank", "-2"],
    ], ids=["parse", "invariants", "moment", "verify", "surfaces"])
    def test_negative_rank_refused(self, run, argv):
        result = run(argv)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr.startswith("invalid input: rank must be at "
                                        "least 0, got -")

    def test_negative_rank_writes_no_cache_entry(self, run, tmp_path):
        cache = tmp_path / "cache"
        result = run(["invariants", "1", "--rank", "-3",
                      "--cache-dir", str(cache)])
        assert result.exit_code == 2
        assert not cache.exists() or not os.listdir(cache)


    @pytest.mark.parametrize("argv", [
        ["parse", "x", "--rank", "1000000"],
        ["invariants", "1", "--rank", "10001", "--no-cache"],
        ["moment", "1", "-T", "1", "--mc", "--rank", "1000000", "--n", "3",
         "--samples", "10"],
        ["verify", "x", "--rank", "10001", "-T", "1"],
        ["surfaces", "1", "--rank", "1000000"],
    ], ids=["parse", "invariants", "moment", "verify", "surfaces"])
    def test_rank_above_max_refused(self, run, argv):
        result = run(argv)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr == "invalid input: rank must be at most 10000, " \
            f"got {argv[argv.index('--rank') + 1]}\n"

    def test_config_rank_above_max_writes_no_cache_entry(self, run, tmp_path):
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("rank = 100000\n")
        cache = tmp_path / "cache"
        result = run(["invariants", "x", "--config", str(cfg),
                      "--cache-dir", str(cache)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == \
            "invalid input: rank must be at most 10000, got 100000\n"
        assert not cache.exists() or not os.listdir(cache)

    def test_max_rank_accepted(self, run):
        assert payload(run(["parse", "x", "--rank", "10000"]))["rank"] == 10000


class TestInternalError:
    @pytest.mark.parametrize("exc", [KeyboardInterrupt, RuntimeError("bug")])
    def test_unmapped_exception_exits_4(self, run, monkeypatch, exc):
        def fail(*args):
            raise exc

        monkeypatch.setattr(wml.cli, "parse_text", fail)
        result = run(["parse", "x"])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr.startswith("internal error: ")


class TestUnbufferedStdout:
    def test_short_writes_are_resumed(self, run, tmp_path, monkeypatch):
        # under python -u, stdout writes straight to the file descriptor,
        # and a write to a pipe returns short when the process is stopped
        # and continued; the whole payload must still arrive
        class ShortWrites(io.FileIO):
            def write(self, data):
                return super().write(bytes(data[:7]))

        args = ["parse", "[x,y]^3", "--rank", "2"]
        path = tmp_path / "stdout"
        with ShortWrites(path, "w") as raw:
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
                raw, encoding="utf-8", write_through=True))
            main(args)
            sys.stdout.flush()
        assert path.read_text() == run(args).stdout


class TestInvariants:
    def test_commutator(self, run):
        data = payload(
            run(["invariants", "[x,y]", "--rank", "2",
                  "--no-cache"])
        )
        assert data["pi"] == 2 and data["cl"] == 1
        assert data["comm_crit_count"] == 1

    def test_power(self, run):
        data = payload(
            run(["invariants", "x^3", "--rank", "1",
                  "--no-cache"])
        )
        assert data["pi"] == 1
        assert data["proper_power"]["is_power"]
        assert data["proper_power"]["exponent"] == 3

    def test_primitive(self, run):
        data = payload(
            run(["invariants", "x", "--rank", "2",
                  "--no-cache"])
        )
        assert data["pi"] == "inf" and data["cl"] == "inf"

    def test_undecided_exit_code(self, run):
        result = run(
            ["invariants", "[x,y]", "--rank", "2", "--no-cache",
             "--fringe-cap", "3"]
        )
        assert result.exit_code == 3

    def test_cache_replays_byte_identical(self, run, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["invariants", "[x,y]", "--rank", "2", "--cache-dir", cache]
        first = run(args)
        assert first.exit_code == 0
        assert len(os.listdir(cache)) == 1
        second = run(args)
        assert second.stdout == first.stdout

    @pytest.mark.parametrize("damage", ["truncated", "not an object",
                                        "not UTF-8"])
    def test_damaged_entry_is_a_miss(self, run, tmp_path, damage):
        # a damaged entry is never printed: the word is analysed again and
        # the entry overwritten with the fresh report
        args = ["invariants", "[x,y]", "--rank", "2", "--cache-dir"]
        fresh = run(args + [str(tmp_path / "fresh")])
        (name,) = os.listdir(tmp_path / "fresh")
        entry = (tmp_path / "fresh" / name).read_bytes()
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / name).write_bytes({"truncated": entry[:len(entry) // 2],
                                    "not an object": b"[]",
                                    "not UTF-8": b"\xff" + entry}[damage])
        result = run(args + [str(cache)])
        assert (result.exit_code, result.stdout) == (0, fresh.stdout)
        assert os.listdir(cache) == [name]
        assert (cache / name).read_bytes() == entry

    @pytest.mark.parametrize("forgery", ["another report", "another word",
                                         "another rank", "rank true"])
    def test_entry_for_another_word_is_a_miss(self, run, tmp_path, forgery):
        # an entry is printed only when it names the word and the rank
        # asked for; any other is analysed again and overwritten
        args = ["invariants", "x^2", "--rank", "1", "--cache-dir"]
        fresh = run(args + [str(tmp_path / "fresh")])
        (name,) = os.listdir(tmp_path / "fresh")
        entry = (tmp_path / "fresh" / name).read_bytes()
        other = {"another report": {"pi": 99},
                 "another word": payload(run(["invariants", "x^3", "--rank",
                                              "1", "--no-cache"])),
                 "another rank": payload(run(["invariants", "x^2", "--rank",
                                              "2", "--no-cache"])),
                 "rank true": {**json.loads(entry), "rank": True}}[forgery]
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / name).write_text(json.dumps(other, indent=2))
        result = run(args + [str(cache)])
        assert (result.exit_code, result.stdout) == (0, fresh.stdout)
        assert os.listdir(cache) == [name]
        assert (cache / name).read_bytes() == entry

    def test_no_cache_computes_no_key(self, run, monkeypatch):
        # the key reads the whole word; with no cache it is never needed
        import wml.cli

        args = ["invariants", "[x,y]", "--rank", "2", "--no-cache"]
        expected = run(args)
        monkeypatch.delenv("WML_CACHE", raising=False)

        def no_key(*args):
            raise AssertionError("cache key computed")

        monkeypatch.setattr(wml.cli, "_cache_key", no_key)
        for extra in ([], ["--cache-dir", "unused"]):
            result = run(args + extra)
            assert (result.exit_code, result.stdout) == \
                (0, expected.stdout)
        result = run(["invariants", "[x,y]", "--rank", "2"])
        assert (result.exit_code, result.stdout) == (0, expected.stdout)

    @pytest.mark.parametrize("where", ["flag names a file",
                                       "flag under a file",
                                       "config names a file"])
    def test_unusable_cache_dir_exits_2_before_analysis(
            self, run, tmp_path, monkeypatch, where):
        # a cache directory that cannot be made is bad input, reported
        # before the analysis runs rather than as a crash after it
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = tmp_path / "wml.cfg"
        cfg.write_text(f"cache_dir = {blocker}\n")
        args = {"flag names a file": ["--cache-dir", str(blocker)],
                "flag under a file": ["--cache-dir", str(blocker / "cache")],
                "config names a file": ["--config", str(cfg)]}[where]

        def no_analysis(*args, **kwargs):
            raise AssertionError("analysis ran")

        monkeypatch.setattr(wml.cli, "analyze", no_analysis)
        result = run(["invariants", "[x,y]", "--rank", "2", *args])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith(
            "invalid input: cannot use cache directory ")

    def test_cache_key_depends_on_caps(self, run, tmp_path):
        cache = str(tmp_path / "cache")
        run(["invariants", "[x,y]", "--rank", "2",
              "--cache-dir", cache])
        run(["invariants", "[x,y]", "--rank", "2",
              "--cache-dir", cache, "--genus-cap", "4"])
        assert len(os.listdir(cache)) == 2

    @pytest.mark.parametrize("cap_args", [
        [], ["--fringe-cap", "12", "--orbit-cap", "1000000", "--genus-cap", "3"],
    ])
    def test_cache_key_pinned(self, run, tmp_path, cap_args):
        # the default caps are part of the key, whether spelled out or not
        cache = tmp_path / "cache"
        payload(run(["invariants", "[x,y]", "--rank", "2",
                      "--cache-dir", str(cache), *cap_args]))
        assert os.listdir(cache) == [
            "98b7c6131dcfce6b7aeb467e293a8f2e31b795d89f40893bfab174dbddfe594b"
            ".json"
        ]

    def test_blocked_cache_entry_exits_2_before_analysis(
            self, run, tmp_path, monkeypatch):
        # a directory where the entry of test_cache_key_pinned belongs
        # cannot be read or replaced: bad input, reported before the
        # analysis runs rather than as a crash
        cache = tmp_path / "cache"
        entry = cache / ("98b7c6131dcfce6b7aeb467e293a8f2e31b795d89f40893"
                         "bfab174dbddfe594b.json")
        entry.mkdir(parents=True)

        def no_analysis(*args, **kwargs):
            raise AssertionError("analysis ran")

        monkeypatch.setattr(wml.cli, "analyze", no_analysis)
        result = run(["invariants", "[x,y]", "--rank", "2",
                      "--cache-dir", str(cache)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == (f"invalid input: cannot use cache entry "
                                 f"{str(entry)!r}: Is a directory\n")


class TestMoment:
    def test_symbolic(self, run):
        data = payload(
            run(["moment", "[x,y]", "-T", "1", "--rank", "2"])
        )
        assert data["display"] == "1 / n"
        assert data["rational"]["num_coeffs"] == [1]
        assert data["rational"]["den_coeffs"] == [0, 1]

    def test_ds_constant(self, run):
        data = payload(
            run(["moment", "x", "-T", "1,-1", "--rank", "1"])
        )
        assert data["display"] == "1"

    def test_numeric(self, run):
        data = payload(
            run(["moment", "[x,y]", "-T", "1", "--rank", "2",
                  "--numeric", "10"])
        )
        assert data["value_at_n"]["value"] == [1, 10]

    def test_numeric_value_past_printing_limit_refused(self, run):
        # the value at a 2,000-digit n has more digits than str() writes
        result = run(["moment", "[x,y]", "-T", "2,-2",
                      "--numeric", "9" * 2000])
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr == ("invalid input: --numeric gives a value of "
                                 "more than 4300 digits\n")

    def test_numeric_at_long_n_prints(self, run):
        n = 10 ** 999
        data = payload(run(["moment", "[x,y]", "-T", "1",
                            "--numeric", str(n)]))
        assert data["value_at_n"] == {"n": n, "value": [1, n]}

    def test_mc(self, run):
        data = payload(
            run(["moment", "[x,y]", "-T", "1", "--rank", "2",
                  "--mc", "--n", "10", "--samples", "2000",
                  "--seed", "7"])
        )
        est = data["estimate"]
        assert est["samples"] == 2000 and est["seed"] == 7
        assert abs(est["mean"][0] - 0.1) < 4 * est["stderr"] + 1e-9

    @pytest.mark.parametrize("rank", ["0"])
    def test_mc_identity_at_rank_below_one(self, run, rank):
        # a rank-0 word draws no unitaries; tr(1) is exactly n
        data = payload(run(["moment", "1", "-T", "1", "--mc", "--rank", rank,
                            "--n", "3", "--samples", "10"]))
        est = data["estimate"]
        assert (est["mean"], est["stderr"]) == ([3.0, 0.0], 0.0)

    def test_zero_exponent_rejected(self, run):
        result = run(["moment", "x", "-T", "0", "--rank", "1"])
        assert result.exit_code != 0


class TestSurfaces:
    def test_commutator_surface(self, run):
        data = payload(
            run(["surfaces", "[x,y]", "--rank", "2"])
        )
        assert data["count"] == 1
        comp = data["surfaces"][0]["components"][0]
        assert comp["chi"] == -1 and comp["genus"] == 1

    def test_images(self, run):
        data = payload(
            run(["surfaces", "[x,y]", "--rank", "2", "--images"])
        )
        comp = data["surfaces"][0]["components"][0]
        assert comp["image_rank"] == 2
        (spec,) = enumerate_matchings([parse("[x,y]", 2)])
        assert comp["image_graph"] == \
            build_surface(spec).image_subgroup(0).serialize()

    def test_unbalanced_rejected(self, run):
        result = run(["surfaces", "x", "--rank", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("texts", [
        ["x X"], ["1"], ["[y,x][x,y]"], ["[x,y]", "1"],
    ])
    def test_trivial_boundary_word_rejected(self, run, texts):
        # an empty annulus has no corners to glue
        result = run(["surfaces", *texts])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == \
            "invalid input: matching specs need nontrivial boundary words\n"


def whole_surfaces_payload(texts, rank=2, max_subdivision=1, images=True):
    """``wml surfaces`` stdout as one ``json.dumps`` of the whole payload,
    the way it was printed before records were streamed."""
    words = [parse(text, rank) for text in texts]
    records = [build_surface(spec).to_json(images=images)
               for spec in enumerate_matchings(words, max_subdivision)]
    return json.dumps({"words": [str(w) for w in words],
                       "count": len(records), "surfaces": records},
                      indent=2) + "\n"


class CountingFile(io.FileIO):
    """A file that counts its write() calls."""
    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


class TestStreamedSurfaces:
    # the collections of ``wml surfaces`` in the benchmark's cli corpus
    CORPUS = [
        (["[x,y]^2", "[y,x]^2"], 1), (["[x,y]", "[y,x]"], 2),
        (["[x,y]"], 2), (["[x,y]^2"], 2), (["[x,y^2]", "[y^2,x]"], 1),
    ]

    @pytest.mark.parametrize("texts, k", CORPUS,
                             ids=[" ".join(c[0]) for c in CORPUS])
    def test_same_bytes_as_whole_payload(self, texts, k):
        code, out, err = _in_process(["surfaces", *texts, "-K", str(k),
                                      "--images"])
        assert code == 0, err
        assert out == whole_surfaces_payload(texts, max_subdivision=k)
        data = json.loads(out)
        assert data["count"] == len(data["surfaces"])

    def test_memory_and_writes_are_bounded(self, tmp_path, monkeypatch):
        # unbuffered stdout writes straight to the file descriptor: the
        # 2.3 MB payload goes out in writes of about WRITE_SIZE characters,
        # one record at a time, never held whole
        argv = ["surfaces", "[x,y]^2", "[y,x]^2", "-K", "1", "--images"]
        expected = whole_surfaces_payload(argv[1:3]).encode()
        path = tmp_path / "stdout"
        with CountingFile(path, "w") as raw:
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
                raw, encoding="utf-8", write_through=True))
            main(argv)
            tracemalloc.start()
            try:
                main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sys.stdout.flush()
            writes = raw.writes
        assert path.read_bytes() == 2 * expected
        assert peak < len(expected) / 4, (peak, len(expected))
        assert writes <= 2 * (len(expected) // wml.cli.WRITE_SIZE + 1), writes


class TestVerify:
    def test_commutator_json(self, run):
        data = payload(
            run(["verify", "[x,y]", "--rank", "2",
                  "-T", "1", "-T", "1,-1"])
        )
        rows = data["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["first_order_bound_passed"]
            assert row["two_term_expansion"]["passed"]
        assert rows[1]["trace_pair_bound"]["passed"]
        assert "timings" in data

    def test_csv(self, run):
        result = run(["verify", "[x,y]", "--rank", "2",
                       "-T", "1", "--csv"])
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0].startswith("word,")
        assert "pass" in lines[1]

    def test_primitive_word(self, run):
        data = payload(
            run(["verify", "x", "--rank", "2", "-T", "1,-1"])
        )
        row = data["rows"][0]
        assert row["pi"] == "inf"
        assert row["first_order_bound_passed"]

    def test_rows_deterministic(self, run):
        args = ["verify", "[x,y^2]", "--rank", "2", "-T", "1"]
        a = payload(run(args))
        b = payload(run(args))
        assert a["rows"] == b["rows"]

    def test_proper_power_skips_expansion_row(self, run):
        data = payload(
            run(["verify", "x^2", "--rank", "1", "-T", "1,-1"])
        )
        row = data["rows"][0]
        assert row["pi"] == 1
        assert row["two_term_expansion"] is None
        assert row["first_order_bound_passed"]
        assert row["trace_pair_bound"]["passed"]

    @pytest.mark.parametrize("extra", [[], ["--csv"]])
    def test_trivial_word_exits_2(self, run, extra):
        result = run(["verify", "1", *extra])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == \
            "invalid input: verification is defined for nontrivial words\n"

    def test_undecided_verify(self, run):
        result = run(["verify", "[x,y]", "--fringe-cap", "3"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("undecided: pi: ")


class TestHugeCounts:
    @pytest.mark.parametrize("args", [
        ["moment", "[x,y]", "-T", "1000"],
        ["surfaces", "[x^2000,y]"],
        ["verify", "[x^2000,y]"],
    ])
    def test_cap_exits_3(self, run, args):
        result = run(args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("undecided: ")

    @pytest.mark.parametrize("k", ["200000", "1000000"])
    def test_large_subdivision_exits_3_promptly(self, run, k):
        start = time.perf_counter()
        result = run(["surfaces", "[x^10,y]", "-K", k])
        assert time.perf_counter() - start < 5
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "undecided: matching enumeration needs at " \
            "least 10^4300 collections, over the cap\n"

    def test_invariants_report_survives(self, run):
        # the undecided invariant is reported in the JSON, as for any cap
        result = run(["invariants", "[x^2000,y]", "--no-cache"])
        assert result.exit_code == 3
        data = json.loads(result.stdout)
        assert data["cl"] == "undecided"
        assert data["undecided"]["cl"].startswith("matching enumeration needs")

    def test_long_trace_power_exits_2(self, run):
        result = run(["moment", "[x,y]", "-T", "300000"])
        assert result.exit_code == 2
        assert result.stderr == \
            "invalid input: word power longer than 1000000 letters\n"


class TestInvalidInput:
    @pytest.mark.parametrize("args", [
        ["moment", "[x,y]^3", "-T", "1", "--numeric", "2"],
        ["moment", "[x,y]", "-T", "1", "--mc", "--samples", "0"],
        ["moment", "[x,y]", "-T", "1", "--mc", "--n", "0"],
        ["verify", "[x,y]", "-T", "1", "--depth", "-3"],
        ["surfaces", "[x,y]", "-K", "0"],
        ["moment", "[x,y]", "-T", "1", "--mc", "--samples", "10",
         "--seed=-1"],
        ["moment", "[x,y]", "-T", "1", "--mc", "--samples", "10",
         f"--seed={2 ** 64}"],
        # a negative cap bounds nothing
        ["invariants", "[x,y]", "--genus-cap", "-1", "--no-cache"],
        ["invariants", "[x,y]", "--fringe-cap", "-1", "--no-cache"],
        ["verify", "[x,y]", "--orbit-cap", "-1"],
        ["moment", "[x,y]", "--term-cap", "-1"],
        ["surfaces", "[x,y]", "--spec-cap", "-1"],
    ])
    def test_out_of_range_exits_2(self, run, args):
        result = run(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("invalid input: ")

    @pytest.mark.parametrize("depth", ["-3", "1001", "20000"])
    def test_depth_out_of_range_exits_2_before_analysis(self, run,
                                                        monkeypatch, depth):
        def no_analysis(*args, **kwargs):
            raise AssertionError("analysis ran")

        monkeypatch.setattr(wml.cli, "analyze", no_analysis)
        result = run(["verify", "[x,y]", "-T", "2,-2", "--depth", depth])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == ("invalid input: --depth must be between 0 "
                                 f"and 1000, got {depth}\n")

    def test_deepest_expansion_prints(self, run):
        # every coefficient of the deepest expansion prints as an integer
        (row,) = payload(run(["verify", "[x,y]", "-T", "2,-2",
                              "--depth", "1000"]))["rows"]
        assert len(row["laurent"]) == 1001
        assert max(len(str(c)) for term in row["laurent"]
                   for c in term["coefficient"]) == 476

    def test_negative_config_cap_exits_2_before_the_cache(self, run,
                                                          tmp_path):
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("genus_cap = -1\n")
        cache = tmp_path / "cache"
        result = run(["invariants", "[x,y]", "--config", str(cfg),
                      "--cache-dir", str(cache)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == \
            "invalid input: genus_cap must be at least 0, got -1\n"
        assert not cache.exists()

    def test_non_integer_config_value_names_key_and_file(self, run,
                                                         tmp_path):
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("genus_cap = abc\n")
        result = run(["invariants", "[x,y]", "--config", str(cfg),
                      "--no-cache"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == (
            f"invalid input: config file {str(cfg)!r}: genus_cap must be "
            "an integer, got 'abc'\n")


class TestConfig:
    def test_config_sets_rank(self, run, tmp_path):
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("rank = 3\n# comment\n")
        data = payload(
            run(["parse", "z", "--config", str(cfg)])
        )
        assert data["rank"] == 3

    def test_flag_overrides_config(self, run, tmp_path):
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("rank = 1\n")
        data = payload(
            run(["parse", "y", "--rank", "2",
                  "--config", str(cfg)])
        )
        assert data["rank"] == 2

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_config_exits_2(self, run, tmp_path, where):
        # a config file that was named but cannot be read is not ignored
        path = tmp_path / "absent.cfg" if where == "missing" else tmp_path
        result = run(["parse", "x", "--config", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith(
            "invalid input: cannot read config file ")


    def test_unknown_key_exits_2_before_any_work(self, run, tmp_path):
        # a misspelt key was ignored: fringe-cap = 3 ran with the default
        # cap and exited 0, where fringe_cap = 3 exits 3
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("fringe-cap = 3\n")
        cache = tmp_path / "cache"
        result = run(["invariants", "[x,y]", "--config", str(cfg),
                      "--cache-dir", str(cache)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith(
            f"invalid input: config file {str(cfg)!r}: unknown key "
            "'fringe-cap'")
        assert not cache.exists()

    @pytest.mark.parametrize("argv", [
        ["parse", "x"],
        ["moment", "x", "-T", "1,-1", "--mc"],
        ["surfaces", "[x,y]"],
    ])
    def test_one_file_serves_every_command(self, run, tmp_path, argv):
        # every documented key is accepted by every command, whether the
        # command reads it or not
        cfg = tmp_path / "wml.cfg"
        cfg.write_text(
            "rank = 2\nfringe_cap = 12\norbit_cap = 1000\ngenus_cap = 3\n"
            "term_cap = 1000\nspec_cap = 1000\nseed = 1\nsamples = 10\n"
            f"n = 2\ncache_dir = {tmp_path / 'cache'}\n")
        payload(run([*argv, "--config", str(cfg)]))


def test_every_option_has_help():
    # an argument without help text prints a bare name under --help
    commands = next(action for action in wml.cli._parser()._actions
                    if action.choices)
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.help, (name, action.dest)


def _readme_cli_lines():
    """The ``wml ...`` command lines of README's ``## CLI`` block, each
    split into arguments with its trailing comment."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "wml", line
        out.append((argv[1:], comment.strip()))
    return out


README_CLI = _readme_cli_lines()


class TestReadmeCli:
    # every command of the README's CLI block runs as written; with no
    # cache directory configured, invariants reads and writes no cache
    @pytest.mark.parametrize("argv, comment", README_CLI,
                             ids=[" ".join(argv) for argv, _ in README_CLI])
    def test_line_runs(self, run, monkeypatch, argv, comment):
        monkeypatch.delenv("WML_CACHE", raising=False)
        result = run(argv)
        assert result.exit_code == 0, result.stderr
        if "--symbolic" in argv:
            assert comment.endswith(": 1/n")
            assert json.loads(result.stdout)["display"] == "1 / n"

    def test_block_is_read(self):
        commands = [argv[0] for argv, _ in README_CLI]
        assert sorted(set(commands)) == \
            ["invariants", "moment", "parse", "surfaces", "verify"]


def _in_process(argv):
    """Run one command line the way the traced benchmark does: through
    ``main()`` with ``sys.argv`` set and stdout redirected to a string.
    Returns ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["wml", *argv]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            wml.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) \
            else (0 if exc.code is None else 1)
    finally:
        sys.argv = saved_argv
    return code, out.getvalue(), err.getvalue()


XY = "x1 x2 x1^-1 x2^-1"


def _pinned(data):
    return lambda out: out == json.dumps(data, indent=2) + "\n"


def _payload(check):
    return lambda out: check(json.loads(out))


def _moment_of_xy(exponents, num, den, n_min, display, **extra):
    return _pinned({
        "word": XY, "exponents": exponents,
        "rational": {"num_coeffs": num, "den_coeffs": den, "n_min": n_min},
        "display": display, **extra,
    })


def _verify_rows(*exponent_lists):
    return _payload(lambda data: [row["exponents"] for row in data["rows"]]
                    == list(exponent_lists))


def _surface_images(present):
    return _payload(lambda data: ("image_rank" in
                                  data["surfaces"][0]["components"][0])
                    == present)


_MINUS_ONE_ONE = _moment_of_xy([-1, 1], [0, 0, 1], [-1, 0, 1], 2,
                               "n^2 / (n^2 - 1)")
_TR_OVER_N = dict(exponents=[1], num=[1], den=[0, 1], n_min=1,
                  display="1 / n")


# (argv, exit code, check of stdout); "{cfg}" stands for a config file
# that sets ``rank = 3``
OPTION_SURFACE = [
    (["moment", "[x,y]", "-T", "-1,1"], 0, _MINUS_ONE_ONE),
    (["moment", "[x,y]", "-T", "-2"], 0,
     _moment_of_xy([-2], [-4], [0, -1, 0, 1], 2, "-4 / (n^3 - n)")),
    (["moment", "[x,y]", "--exponents", "-1,1"], 0, _MINUS_ONE_ONE),
    (["verify", "[x,y]", "-T", "1", "--depth", "-3"], 2,
     lambda out: out == ""),
    (["verify", "[x,y]", "-T", "1", "-T", "1,-1"], 0,
     _verify_rows([1], [1, -1])),
    (["verify", "[x,y]"], 0, _verify_rows([1], [-1], [1, -1], [2, -2])),
    (["surfaces", "[x,y]", "--images"], 0, _surface_images(True)),
    (["surfaces", "[x,y]", "--no-images"], 0, _surface_images(False)),
    (["moment", "[x,y]", "--mc", "--n", "4", "--samples", "10",
      "--symbolic"], 0, _moment_of_xy(**_TR_OVER_N)),
    (["moment", "[x,y]", "--numeric", "10"], 0,
     _moment_of_xy(**_TR_OVER_N, value_at_n={"n": 10, "value": [1, 10]})),
    (["parse", "z", "--config", "{cfg}"], 0,
     _payload(lambda data: data["rank"] == 3)),
    (["moment", "[x,y]", "--bogus"], 2, lambda out: out == ""),
    (["moment", "[x,y]", "--num", "10"], 2, lambda out: out == ""),
    ([], 2, lambda out: out == ""),
    (["--help"], 0, lambda out: "moment" in out),
]


@pytest.mark.parametrize("argv, code, stdout_ok", OPTION_SURFACE,
                         ids=[" ".join(case[0]) or "no command"
                              for case in OPTION_SURFACE])
def test_option_surface(tmp_path, argv, code, stdout_ok):
    # every option spelling keeps its exit code and stdout
    cfg = tmp_path / "wml.cfg"
    cfg.write_text("rank = 3\n")
    argv = [str(cfg) if arg == "{cfg}" else arg for arg in argv]
    got_code, out, err = _in_process(argv)
    assert got_code == code, err
    assert stdout_ok(out), out
    if argv[:1] == ["verify"] and code == 2:
        assert err.startswith("invalid input: ")


class TestInProcessCall:
    """The traced benchmark calls ``main()`` with no arguments inside
    ``redirect_stdout``; a break here would only crash the traced run."""

    def test_parse_payload_bytes(self):
        code, out, _ = _in_process(["parse", "[x,y]", "--rank", "2"])
        assert code == 0
        assert out.encode() == (json.dumps({
            "word": XY, "rank": 2, "length": 4, "letters": [1, 2, -1, -2],
            "cyclic_core": XY, "conjugator": "1",
            "abelianization": [0, 0],
        }, indent=2) + "\n").encode()

    def test_parse_error_exits_2(self):
        code, out, err = _in_process(["parse", "[x,y", "--rank", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")

    def test_undecided_exits_3(self):
        code, out, err = _in_process(["invariants", "[x,y]", "--fringe-cap",
                                      "3", "--no-cache"])
        assert code == 3
        assert json.loads(out)["pi"] == "undecided"


# sha256 of the stdout of ``wml surfaces ... --images`` on collections of
# three and four annuli, one of them with two subdivision levels; the
# ``cli`` goldens hold only collections of one and two annuli
IMAGE_PINS = [
    (["[x,y]", "[y,x]", "[x,y]", "-K", "1"],
     "d8cb6fbdfc59ef23f849e528116443890419e06a11b75c888d3d5384a804d757"),
    (["[x,y][x,z]", "[z,x][y,x]", "--rank", "3", "-K", "1"],
     "681405df82e794d0757c2b774c62b0771ba44b14b807139ef9b667afc9b0ad2e"),
    (["xyXY", "yxYX", "xyXY", "yxYX", "-K", "1"],
     "9fed3aa99e7b35d32a662f638b37876095591719042144a860c6a6b9a738ec55"),
    (["[x,y]", "[y,x]", "[x,y]", "-K", "2"],
     "5c82da549e37dd4198aecd6c684cf815ee4dbfadbb224dfdedb31fbcb67a488e"),
]


@pytest.mark.parametrize("argv, digest", IMAGE_PINS,
                         ids=[" ".join(case[0]) for case in IMAGE_PINS])
def test_surface_images_pinned(argv, digest):
    code, out, err = _in_process(["surfaces", *argv, "--images"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout and the exit code of the long-word commands, the
# first two at the 10^6-letter bound; the moment's w^2 spells 999,996
# letters and its value is -124999500000 / (n^3 - n)
LONG_WORD_PINS = [
    (["parse", "[x^499999,y]"], 0,
     "f242f63858d1bf60966792ae69566042443ee67b1a84fc11ae609b3dc0f1a210"),
    (["invariants", "[x^499999,y]", "--no-cache"], 3,
     "06e91136ed4cd7e8e401e03948cba062c08d64fb48a96008ceb2440767def4a8"),
    (["moment", "[x^249999,y]", "-T", "2"], 0,
     "e1e17d1beb289a9941a659658eff45ad79d3ccbc83310eaf1afa96eb9cbc446c"),
]


@pytest.mark.parametrize("argv, code, digest", LONG_WORD_PINS,
                         ids=[" ".join(case[0]) for case in LONG_WORD_PINS])
def test_long_words_pinned(argv, code, digest):
    got, out, err = _in_process(argv)
    assert got == code, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_emit_streams_the_encoder_tokens(tmp_path, monkeypatch):
    # json.dumps(data, indent=2) holds one small string per token, two or
    # more per list item, before it joins them; _emit prints the same
    # bytes while holding neither the tokens nor the text whole: its peak
    # is a few writes of about WRITE_SIZE characters, whatever the payload
    data = {"word": "x", "letters": list(range(-50_000, 50_000)),
            "nested": [{"a": [1.5, None, True]}, [], {}]}
    expected = (json.dumps(data, indent=2) + "\n").encode()
    path = tmp_path / "stdout"
    with CountingFile(path, "w") as raw:
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
            raw, encoding="utf-8", write_through=True))
        tracemalloc.start()
        try:
            wml.cli._emit(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sys.stdout.flush()
    assert path.read_bytes() == expected
    assert peak < 8 * wml.cli.WRITE_SIZE < len(expected), \
        (peak, len(expected))

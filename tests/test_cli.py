import io
import json
import os
import sys
import time

import pytest
from click.testing import CliRunner

from wml.cli import cli
from wml.surfaces import build_surface, enumerate_matchings
from wml.words import parse


@pytest.fixture
def runner():
    return CliRunner()


def payload(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestParse:
    def test_commutator(self, runner):
        data = payload(runner.invoke(cli, ["parse", "[x,y]", "--rank", "2"]))
        assert data["letters"] == [1, 2, -1, -2]
        assert data["cyclic_core"] == data["word"]

    def test_parse_error_exit_code(self, runner):
        result = runner.invoke(cli, ["parse", "[x,y", "--rank", "2"])
        assert result.exit_code == 2
        assert result.stderr.startswith("parse error: ")

    def test_long_digit_run_exit_code(self, runner):
        result = runner.invoke(cli, ["parse", "x^" + "9" * 5000])
        assert result.exit_code == 2
        assert result.stderr == \
            "parse error: number longer than 640 digits (at position 2)\n"

    def test_rank_violation_exit_code(self, runner):
        result = runner.invoke(cli, ["parse", "y", "--rank", "1"])
        assert result.exit_code == 2


class TestUnbufferedStdout:
    def test_short_writes_are_resumed(self, runner, tmp_path, monkeypatch):
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
            cli(args, standalone_mode=False)
            sys.stdout.flush()
        assert path.read_text() == runner.invoke(cli, args).output


class TestInvariants:
    def test_commutator(self, runner):
        data = payload(
            runner.invoke(cli, ["invariants", "[x,y]", "--rank", "2",
                                 "--no-cache"])
        )
        assert data["pi"] == 2 and data["cl"] == 1
        assert data["comm_crit_count"] == 1

    def test_power(self, runner):
        data = payload(
            runner.invoke(cli, ["invariants", "x^3", "--rank", "1",
                                 "--no-cache"])
        )
        assert data["pi"] == 1
        assert data["proper_power"]["is_power"]
        assert data["proper_power"]["exponent"] == 3

    def test_primitive(self, runner):
        data = payload(
            runner.invoke(cli, ["invariants", "x", "--rank", "2",
                                 "--no-cache"])
        )
        assert data["pi"] == "inf" and data["cl"] == "inf"

    def test_undecided_exit_code(self, runner):
        result = runner.invoke(
            cli, ["invariants", "[x,y]", "--rank", "2", "--no-cache",
                   "--fringe-cap", "3"]
        )
        assert result.exit_code == 3

    def test_cache_replays_byte_identical(self, runner, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["invariants", "[x,y]", "--rank", "2", "--cache-dir", cache]
        first = runner.invoke(cli, args)
        assert first.exit_code == 0
        assert len(os.listdir(cache)) == 1
        second = runner.invoke(cli, args)
        assert second.output == first.output

    def test_no_cache_computes_no_key(self, runner, monkeypatch):
        # the key reads the whole word; with no cache it is never needed
        import wml.cli

        args = ["invariants", "[x,y]", "--rank", "2", "--no-cache"]
        expected = runner.invoke(cli, args)
        monkeypatch.delenv("WML_CACHE", raising=False)

        def no_key(*args):
            raise AssertionError("cache key computed")

        monkeypatch.setattr(wml.cli, "_cache_key", no_key)
        for extra in ([], ["--cache-dir", "unused"]):
            result = runner.invoke(cli, args + extra)
            assert (result.exit_code, result.output) == \
                (0, expected.output)
        result = runner.invoke(cli, ["invariants", "[x,y]", "--rank", "2"])
        assert (result.exit_code, result.output) == (0, expected.output)

    def test_cache_key_depends_on_caps(self, runner, tmp_path):
        cache = str(tmp_path / "cache")
        runner.invoke(cli, ["invariants", "[x,y]", "--rank", "2",
                             "--cache-dir", cache])
        runner.invoke(cli, ["invariants", "[x,y]", "--rank", "2",
                             "--cache-dir", cache, "--genus-cap", "4"])
        assert len(os.listdir(cache)) == 2

    @pytest.mark.parametrize("cap_args", [
        [], ["--fringe-cap", "12", "--orbit-cap", "1000000", "--genus-cap", "3"],
    ])
    def test_cache_key_pinned(self, runner, tmp_path, cap_args):
        # the default caps are part of the key, whether spelled out or not
        cache = tmp_path / "cache"
        payload(runner.invoke(cli, ["invariants", "[x,y]", "--rank", "2",
                                     "--cache-dir", str(cache), *cap_args]))
        assert os.listdir(cache) == [
            "98b7c6131dcfce6b7aeb467e293a8f2e31b795d89f40893bfab174dbddfe594b"
            ".json"
        ]


class TestMoment:
    def test_symbolic(self, runner):
        data = payload(
            runner.invoke(cli, ["moment", "[x,y]", "-T", "1", "--rank", "2"])
        )
        assert data["display"] == "1 / n"
        assert data["rational"]["num_coeffs"] == [1]
        assert data["rational"]["den_coeffs"] == [0, 1]

    def test_ds_constant(self, runner):
        data = payload(
            runner.invoke(cli, ["moment", "x", "-T", "1,-1", "--rank", "1"])
        )
        assert data["display"] == "1"

    def test_numeric(self, runner):
        data = payload(
            runner.invoke(cli, ["moment", "[x,y]", "-T", "1", "--rank", "2",
                                 "--numeric", "10"])
        )
        assert data["value_at_n"]["value"] == [1, 10]

    def test_mc(self, runner):
        data = payload(
            runner.invoke(cli, ["moment", "[x,y]", "-T", "1", "--rank", "2",
                                 "--mc", "--n", "10", "--samples", "2000",
                                 "--seed", "7"])
        )
        est = data["estimate"]
        assert est["samples"] == 2000 and est["seed"] == 7
        assert abs(est["mean"][0] - 0.1) < 4 * est["stderr"] + 1e-9

    def test_zero_exponent_rejected(self, runner):
        result = runner.invoke(cli, ["moment", "x", "-T", "0", "--rank", "1"])
        assert result.exit_code != 0


class TestSurfaces:
    def test_commutator_surface(self, runner):
        data = payload(
            runner.invoke(cli, ["surfaces", "[x,y]", "--rank", "2"])
        )
        assert data["count"] == 1
        comp = data["surfaces"][0]["components"][0]
        assert comp["chi"] == -1 and comp["genus"] == 1

    def test_images(self, runner):
        data = payload(
            runner.invoke(cli, ["surfaces", "[x,y]", "--rank", "2", "--images"])
        )
        comp = data["surfaces"][0]["components"][0]
        assert comp["image_rank"] == 2
        (spec,) = enumerate_matchings([parse("[x,y]", 2)])
        assert comp["image_graph"] == \
            build_surface(spec).image_subgroup(0).serialize()

    def test_unbalanced_rejected(self, runner):
        result = runner.invoke(cli, ["surfaces", "x", "--rank", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("texts", [
        ["x X"], ["1"], ["[y,x][x,y]"], ["[x,y]", "1"],
    ])
    def test_trivial_boundary_word_rejected(self, runner, texts):
        # an empty annulus has no corners to glue
        result = runner.invoke(cli, ["surfaces", *texts])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == \
            "invalid input: matching specs need nontrivial boundary words\n"


class TestVerify:
    def test_commutator_json(self, runner):
        data = payload(
            runner.invoke(cli, ["verify", "[x,y]", "--rank", "2",
                                 "-T", "1", "-T", "1,-1"])
        )
        rows = data["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["first_order_bound_passed"]
            assert row["two_term_expansion"]["passed"]
        assert rows[1]["trace_pair_bound"]["passed"]
        assert "timings" in data

    def test_csv(self, runner):
        result = runner.invoke(cli, ["verify", "[x,y]", "--rank", "2",
                                      "-T", "1", "--csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("word,")
        assert "pass" in lines[1]

    def test_primitive_word(self, runner):
        data = payload(
            runner.invoke(cli, ["verify", "x", "--rank", "2", "-T", "1,-1"])
        )
        row = data["rows"][0]
        assert row["pi"] == "inf"
        assert row["first_order_bound_passed"]

    def test_rows_deterministic(self, runner):
        args = ["verify", "[x,y^2]", "--rank", "2", "-T", "1"]
        a = payload(runner.invoke(cli, args))
        b = payload(runner.invoke(cli, args))
        assert a["rows"] == b["rows"]

    def test_proper_power_skips_expansion_row(self, runner):
        data = payload(
            runner.invoke(cli, ["verify", "x^2", "--rank", "1", "-T", "1,-1"])
        )
        row = data["rows"][0]
        assert row["pi"] == 1
        assert row["two_term_expansion"] is None
        assert row["first_order_bound_passed"]
        assert row["trace_pair_bound"]["passed"]

    def test_undecided_verify(self, runner):
        result = runner.invoke(cli, ["verify", "[x,y]", "--fringe-cap", "3"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("undecided: pi: ")


class TestHugeCounts:
    @pytest.mark.parametrize("args", [
        ["moment", "[x,y]", "-T", "1000"],
        ["surfaces", "[x^2000,y]"],
        ["verify", "[x^2000,y]"],
    ])
    def test_cap_exits_3(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("undecided: ")

    @pytest.mark.parametrize("k", ["200000", "1000000"])
    def test_large_subdivision_exits_3_promptly(self, runner, k):
        start = time.perf_counter()
        result = runner.invoke(cli, ["surfaces", "[x^10,y]", "-K", k])
        assert time.perf_counter() - start < 5
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "undecided: matching enumeration needs at " \
            "least 10^4300 collections, over the cap\n"

    def test_invariants_report_survives(self, runner):
        # the undecided invariant is reported in the JSON, as for any cap
        result = runner.invoke(cli, ["invariants", "[x^2000,y]", "--no-cache"])
        assert result.exit_code == 3
        data = json.loads(result.stdout)
        assert data["cl"] == "undecided"
        assert data["undecided"]["cl"].startswith("matching enumeration needs")

    def test_long_trace_power_exits_2(self, runner):
        result = runner.invoke(cli, ["moment", "[x,y]", "-T", "300000"])
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
    ])
    def test_out_of_range_exits_2(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("invalid input: ")


class TestConfig:
    def test_config_sets_rank(self, runner, tmp_path):
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("rank = 3\n# comment\n")
        data = payload(
            runner.invoke(cli, ["parse", "z", "--config", str(cfg)])
        )
        assert data["rank"] == 3

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "wml.cfg"
        cfg.write_text("rank = 1\n")
        data = payload(
            runner.invoke(cli, ["parse", "y", "--rank", "2",
                                 "--config", str(cfg)])
        )
        assert data["rank"] == 2

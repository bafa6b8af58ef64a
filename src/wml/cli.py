"""Command-line interface: parse | invariants | moment | surfaces | verify.

Output is JSON by default (CSV for verify tables on request).  Exact
rational functions are printed as integer-coefficient fraction strings,
never floats.  Results that only depend on the word and the flags are
cached by canonical word form under ``--cache-dir`` (or ``$WML_CACHE``),
written atomically so concurrent invocations are safe.

Exit codes: 0 ok, 2 parse error, 3 undecided at a resource cap, 4 internal.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

import click

from . import __version__
from .errors import ParseError, UndecidedError
from .invariants import INFINITY, analyze
from .montecarlo import estimate_moment
from .ratfunc import RationalFunction, laurent
from .surfaces import build_surface, enumerate_matchings
from .weingarten import (
    TraceMonomial,
    expansion_prediction,
    moment,
    stable_inner_product,
)
from .words import parse as parse_text

EXIT_PARSE = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4


def _load_config(path):
    values = {}
    if not path or not os.path.exists(path):
        return values
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


class Settings:
    """Flag values with config-file fallbacks."""

    def __init__(self, config_path=None):
        self.config = _load_config(config_path)

    def get(self, name, flag_value, default, cast=int):
        if flag_value is not None:
            return flag_value
        if name in self.config:
            return cast(self.config[name])
        return default


def _cache_dir(flag_value, settings):
    return flag_value or settings.config.get("cache_dir") \
        or os.environ.get("WML_CACHE")


def _cache_lookup(directory, key):
    if not directory:
        return None
    path = os.path.join(directory, key + ".json")
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    return None


def _cache_store(directory, key, payload_text):
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload_text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_key(command, word, params):
    blob = json.dumps(
        {
            "command": command,
            "word": word.canonical_key(),
            "rank": word.rank,
            "params": params,
            "version": __version__,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(data):
    click.echo(json.dumps(data, indent=2))


def _fail_parse(exc):
    click.echo(f"parse error: {exc}", err=True)
    sys.exit(EXIT_PARSE)


def _fail_undecided(exc):
    click.echo(f"undecided: {exc}", err=True)
    sys.exit(EXIT_UNDECIDED)


def _encode_inf(v):
    return "inf" if v is INFINITY else v


def _parse_exponents(text):
    try:
        exps = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise click.BadParameter(f"bad exponent list {text!r}")
    if not exps or any(m == 0 for m in exps):
        raise click.BadParameter("exponents must be nonzero integers")
    return exps


@click.group()
def cli():
    """Free-group word invariants and exact unitary word-measure moments."""


def main():
    """Console entry point mapping failures to the documented exit codes."""
    try:
        cli(standalone_mode=False)
    except SystemExit:
        raise
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_PARSE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except UndecidedError as exc:
        click.echo(f"undecided: {exc}", err=True)
        sys.exit(EXIT_UNDECIDED)
    except click.Abort:
        sys.exit(EXIT_INTERNAL)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)


@cli.command("parse")
@click.argument("word_text")
@click.option("--rank", type=int, default=None, help="ambient rank")
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_parse(word_text, rank, config_path):
    """Parse a word and print its canonical form."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    try:
        w = parse_text(word_text, rank)
    except ParseError as exc:
        _fail_parse(exc)
    core, conj = w.cyclic_reduce()
    _emit(
        {
            "word": str(w),
            "rank": rank,
            "length": len(w),
            "letters": list(w.letters),
            "cyclic_core": str(core),
            "conjugator": str(conj),
            "abelianization": list(w.abelianization()),
        }
    )


@cli.command("invariants")
@click.argument("word_text")
@click.option("--rank", type=int, default=None)
@click.option("--fringe-cap", type=int, default=None,
              help="largest core-graph vertex count enumerated")
@click.option("--orbit-cap", type=int, default=None,
              help="most minimal-level states explored by the orbit search")
@click.option("--genus-cap", type=int, default=None)
@click.option("--cache-dir", type=click.Path(), default=None)
@click.option("--no-cache", is_flag=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_invariants(word_text, rank, fringe_cap, orbit_cap, genus_cap,
                   cache_dir, no_cache, config_path):
    """Primitivity rank, commutator length, and critical-subgroup data."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    fringe_cap = settings.get("fringe_cap", fringe_cap, 12)
    orbit_cap = settings.get("orbit_cap", orbit_cap, 10 ** 6)
    genus_cap = settings.get("genus_cap", genus_cap, 3)
    try:
        w = parse_text(word_text, rank)
    except ParseError as exc:
        _fail_parse(exc)

    params = {"fringe_cap": fringe_cap, "orbit_cap": orbit_cap,
              "genus_cap": genus_cap}
    directory = None if no_cache else _cache_dir(cache_dir, settings)
    key = _cache_key("invariants", w, params)
    cached = _cache_lookup(directory, key)
    if cached is not None:
        click.echo(cached.rstrip("\n"))
        data = json.loads(cached)
        sys.exit(EXIT_UNDECIDED if data.get("undecided") else 0)

    report = analyze(w, rank, fringe_cap=fringe_cap, orbit_cap=orbit_cap,
                     genus_cap=genus_cap)
    data = report.to_json()
    payload = json.dumps(data, indent=2)
    _cache_store(directory, key, payload)
    click.echo(payload)
    if report.undecided:
        sys.exit(EXIT_UNDECIDED)


@cli.command("moment")
@click.argument("word_text")
@click.option("-T", "--exponents", "exponents_text", default="1",
              help="comma-separated trace exponents, e.g. 1,-1")
@click.option("--rank", type=int, default=None)
@click.option("--symbolic", "mode", flag_value="symbolic", default=True)
@click.option("--numeric", "numeric_n", type=int, default=None,
              help="evaluate the exact value at this matrix size")
@click.option("--mc", "mode", flag_value="mc")
@click.option("--n", "mc_n", type=int, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--term-cap", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_moment(word_text, exponents_text, rank, mode, numeric_n, mc_n,
               samples, seed, term_cap, config_path):
    """Exact or Monte Carlo moment of a word measure."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    term_cap = settings.get("term_cap", term_cap, 10 ** 8)
    exponents = _parse_exponents(exponents_text)
    try:
        w = parse_text(word_text, rank)
    except ParseError as exc:
        _fail_parse(exc)

    if mode == "mc":
        mc_n = settings.get("n", mc_n, 8)
        samples = settings.get("samples", samples, 100_000)
        seed = settings.get("seed", seed, 1)
        est = estimate_moment(w, exponents, n=mc_n, samples=samples, seed=seed)
        _emit({"word": str(w), "exponents": list(exponents),
               "estimate": est.to_json()})
        return

    try:
        f = moment(w, exponents, term_cap=term_cap)
    except UndecidedError as exc:
        _fail_undecided(exc)
    data = {
        "word": str(w),
        "exponents": list(exponents),
        "rational": f.serialize(),
        "display": str(f),
    }
    if numeric_n is not None:
        value = f.evaluate(numeric_n)
        data["value_at_n"] = {
            "n": numeric_n,
            "value": [value.numerator, value.denominator],
        }
    _emit(data)


@cli.command("surfaces")
@click.argument("word_texts", nargs=-1, required=True)
@click.option("--rank", type=int, default=None)
@click.option("--max-subdivision", "-K", type=int, default=1)
@click.option("--spec-cap", type=int, default=None)
@click.option("--images/--no-images", default=False,
              help="include image subgroup data per component")
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_surfaces(word_texts, rank, max_subdivision, spec_cap, images,
                 config_path):
    """Enumerate matching-built surfaces for a balanced word collection."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    spec_cap = settings.get("spec_cap", spec_cap, 200_000)
    try:
        words = [parse_text(t, rank) for t in word_texts]
    except ParseError as exc:
        _fail_parse(exc)
    try:
        records = []
        for spec in enumerate_matchings(words, max_subdivision, spec_cap):
            surface = build_surface(spec)
            record = surface.to_json()
            if images:
                for i, comp in enumerate(record["components"]):
                    subgroup = surface.image_subgroup(i)
                    comp["image_rank"] = subgroup.subgroup_rank
                    comp["image_graph"] = subgroup.serialize()
            records.append(record)
    except UndecidedError as exc:
        _fail_undecided(exc)
    except ValueError as exc:
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    _emit({"words": [str(w) for w in words], "count": len(records),
           "surfaces": records})


def _laurent_terms(f, depth):
    series = laurent(f, depth)
    if series.e0 is None:
        return []
    return [
        {"exponent": series.e0 - k,
         "coefficient": [c.numerator, c.denominator]}
        for k, c in enumerate(series.coeffs)
    ]


def verify_word(w, exponent_sets, pi, comm_crit_count, depth=None,
                term_cap=10 ** 8):
    """One verification row per trace monomial: exact value, expansion,
    predictions, and pass flags for each asymptotic statement."""
    rows = []
    is_power = w.is_proper_power()[0]
    for exponents in exponent_sets:
        t = TraceMonomial(exponents)
        f = moment(w, t, term_cap=term_cap)
        constant = stable_inner_product(t, TraceMonomial())
        finite_pi = pi is not INFINITY and not isinstance(pi, str)
        row_depth = depth if depth is not None else \
            ((pi + 2) if finite_pi else 4)
        diff = f - constant

        first_order_ok = diff.is_zero() if not finite_pi else (
            diff.is_zero() or diff.laurent_order <= 1 - pi
        )

        expansion = None
        if not is_power and not isinstance(pi, str):
            pred = expansion_prediction(w, t, pi, comm_crit_count)
            if finite_pi:
                coeff = laurent(diff, max(0, diff.laurent_order - (1 - pi))) \
                    .coefficient(1 - pi) if not diff.is_zero() else 0
                predicted = Fraction(pred["second_coefficient"])
                remainder = diff - _monomial_rf(predicted, 1 - pi)
                expansion_ok = (coeff == predicted) and (
                    remainder.is_zero()
                    or remainder.laurent_order <= -pi
                )
            else:
                expansion_ok = diff.is_zero()
            expansion = {
                "predicted_constant": pred["constant"],
                "predicted_second_coefficient": pred["second_coefficient"],
                "second_exponent": pred["second_exponent"],
                "remainder_exponent_bound": pred["remainder_exponent"],
                "passed": bool(expansion_ok and constant == pred["constant"]),
            }

        xi_pair = None
        if sorted(exponents) == [-1, 1]:
            d1 = f - 1
            if not finite_pi:
                ok = d1.is_zero()
            else:
                ok = d1.is_zero() or d1.laurent_order <= 2 * (1 - pi)
            xi_pair = {"bound_exponent": None if not finite_pi
                       else 2 * (1 - pi), "passed": bool(ok)}

        rows.append(
            {
                "word": str(w),
                "exponents": list(exponents),
                "pi": _encode_inf(pi),
                "comm_crit_count": comm_crit_count,
                "rational": f.serialize(),
                "display": str(f),
                "laurent": _laurent_terms(f, row_depth),
                "constant_term": constant,
                "first_order_bound_passed": bool(first_order_ok),
                "two_term_expansion": expansion,
                "trace_pair_bound": xi_pair,
            }
        )
    return rows


def _monomial_rf(q, exponent):
    return RationalFunction.from_fraction(q) * RationalFunction.n_power(exponent)


@cli.command("verify")
@click.argument("word_text")
@click.option("-T", "--exponents", "exponent_texts", multiple=True,
              default=("1", "-1", "1,-1", "2,-2"),
              help="repeatable comma-separated exponent lists")
@click.option("--rank", type=int, default=None)
@click.option("--depth", type=int, default=None)
@click.option("--csv", "as_csv", is_flag=True)
@click.option("--fringe-cap", type=int, default=None)
@click.option("--orbit-cap", type=int, default=None)
@click.option("--genus-cap", type=int, default=None)
@click.option("--term-cap", type=int, default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_verify(word_text, exponent_texts, rank, depth, as_csv, fringe_cap,
               orbit_cap, genus_cap, term_cap, config_path):
    """Check the expansion statements instance-by-instance for one word."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    fringe_cap = settings.get("fringe_cap", fringe_cap, 12)
    orbit_cap = settings.get("orbit_cap", orbit_cap, 10 ** 6)
    genus_cap = settings.get("genus_cap", genus_cap, 3)
    term_cap = settings.get("term_cap", term_cap, 10 ** 8)
    try:
        w = parse_text(word_text, rank)
    except ParseError as exc:
        _fail_parse(exc)
    exponent_sets = [_parse_exponents(t) for t in exponent_texts]

    started = time.perf_counter()
    report = analyze(w, rank, fringe_cap=fringe_cap, orbit_cap=orbit_cap,
                     genus_cap=genus_cap)
    if report.pi == "undecided" or report.comm_crit_count == "undecided":
        _fail_undecided(
            "; ".join(f"{k}: {v}" for k, v in report.undecided.items())
        )
    try:
        rows = verify_word(w, exponent_sets, report.pi,
                           report.comm_crit_count, depth=depth,
                           term_cap=term_cap)
    except UndecidedError as exc:
        _fail_undecided(exc)
    elapsed = time.perf_counter() - started

    if as_csv:
        header = ["word", "exponents", "exact", "first_order_bound",
                  "two_term_expansion", "trace_pair_bound"]
        lines = [",".join(header)]
        for row in rows:
            expansion = row["two_term_expansion"]
            pair = row["trace_pair_bound"]
            lines.append(",".join([
                row["word"].replace(" ", ""),
                ";".join(str(m) for m in row["exponents"]),
                row["display"].replace(" ", ""),
                "pass" if row["first_order_bound_passed"] else "FAIL",
                "n/a" if expansion is None
                else ("pass" if expansion["passed"] else "FAIL"),
                "n/a" if pair is None else ("pass" if pair["passed"] else "FAIL"),
            ]))
        click.echo("\n".join(lines))
        return
    _emit({"rows": rows, "timings": {"total_seconds": elapsed}})


if __name__ == "__main__":
    main()

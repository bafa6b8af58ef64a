"""Command-line interface: parse | invariants | moment | surfaces | verify.

A click shell over the library: every command parses its flags, reads
config fallbacks and the library's default caps, calls one library entry
point and prints the result.  Output is JSON by default (CSV for verify
tables on request).  Exact rational functions are printed as
integer-coefficient fraction strings, never floats.  Results that only
depend on the word and the flags are cached by canonical word form under
``--cache-dir`` (or ``$WML_CACHE``), written atomically so concurrent
invocations are safe.

Exit codes: 0 ok, 2 parse error or invalid input, 3 undecided at a
resource cap, 4 internal.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
import time

import click

from . import __version__
from .errors import ParseError, UndecidedError
from .invariants import DEFAULT_GENUS_CAP, analyze
from .montecarlo import estimate_moment
from .stallings import DEFAULT_FRINGE_VERTEX_CAP
from .surfaces import DEFAULT_SPEC_CAP, build_surface, enumerate_matchings
from .weingarten import DEFAULT_TERM_CAP, moment, verify_word
from .whitehead import DEFAULT_ORBIT_CAP
from .words import parse as parse_text

EXIT_INPUT = 2
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

    def get(self, name, flag_value, default):
        if flag_value is not None:
            return flag_value
        if name in self.config:
            return int(self.config[name])
        return default

    def analysis_caps(self, fringe_cap, orbit_cap, genus_cap):
        """The caps of :func:`wml.invariants.analyze`, by parameter name."""
        return {
            "fringe_cap": self.get("fringe_cap", fringe_cap,
                                   DEFAULT_FRINGE_VERTEX_CAP),
            "orbit_cap": self.get("orbit_cap", orbit_cap, DEFAULT_ORBIT_CAP),
            "genus_cap": self.get("genus_cap", genus_cap, DEFAULT_GENUS_CAP),
        }


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


def _echo(text):
    """Print one stdout payload in full.

    Under ``python -u`` (``PYTHONUNBUFFERED``) ``sys.stdout`` hands each
    string to a single write() on the file descriptor.  On a pipe that
    write returns short when the process is stopped and continued
    (SIGSTOP/SIGCONT, as job control does), and the text layer drops the
    rest, so a large payload was cut off with exit status 0.  Unbuffered
    output therefore goes through a loop that resumes after a short write.
    """
    stream = sys.stdout
    raw = getattr(stream, "buffer", None)
    if not isinstance(raw, io.FileIO):
        click.echo(text)
        return
    stream.flush()
    data = memoryview((text + "\n").encode(stream.encoding, stream.errors))
    while data:
        data = data[raw.write(data):]


def _emit(data):
    _echo(json.dumps(data, indent=2))


def _parse_exponents(text):
    try:
        exps = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise click.BadParameter(f"bad exponent list {text!r}")
    if not exps or any(m == 0 for m in exps):
        raise click.BadParameter("exponents must be nonzero integers")
    return exps


class _Commands(click.Group):
    """The error boundary of every command: library exceptions become a
    one-line message on stderr and the documented exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParseError as exc:  # a ValueError, so it is matched first
            click.echo(f"parse error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except ValueError as exc:
            click.echo(f"invalid input: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except UndecidedError as exc:
            click.echo(f"undecided: {exc}", err=True)
            sys.exit(EXIT_UNDECIDED)


@click.group(cls=_Commands)
def cli():
    """Free-group word invariants and exact unitary word-measure moments."""


def main():
    """Console entry point: click's usage errors exit 2, anything the
    command boundary does not map exits 4."""
    try:
        cli(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_INPUT)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(EXIT_INTERNAL)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)


_rank_option = click.option("--rank", type=int, default=None,
                            help="ambient rank")
_config_option = click.option("--config", "config_path", type=click.Path(),
                              default=None, help="key = value config file")


def _analysis_cap_options(command):
    """--fringe-cap, --orbit-cap and --genus-cap, the caps of ``analyze``."""
    for option in reversed([
        click.option("--fringe-cap", type=int, default=None,
                     help="largest core-graph vertex count enumerated"),
        click.option("--orbit-cap", type=int, default=None,
                     help="most minimal-level states explored by the "
                          "orbit search"),
        click.option("--genus-cap", type=int, default=None,
                     help="largest commutator length reported exactly"),
    ]):
        command = option(command)
    return command


@cli.command("parse")
@click.argument("word_text")
@_rank_option
@_config_option
def cmd_parse(word_text, rank, config_path):
    """Parse a word and print its canonical form."""
    rank = Settings(config_path).get("rank", rank, 2)
    w = parse_text(word_text, rank)
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
@_rank_option
@_analysis_cap_options
@click.option("--cache-dir", type=click.Path(), default=None)
@click.option("--no-cache", is_flag=True)
@_config_option
def cmd_invariants(word_text, rank, fringe_cap, orbit_cap, genus_cap,
                   cache_dir, no_cache, config_path):
    """Primitivity rank, commutator length, and critical-subgroup data."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    caps = settings.analysis_caps(fringe_cap, orbit_cap, genus_cap)
    w = parse_text(word_text, rank)

    directory = None if no_cache else _cache_dir(cache_dir, settings)
    # the key reads the whole word, so it is computed only for a cache
    key = _cache_key("invariants", w, caps) if directory else None
    cached = _cache_lookup(directory, key)
    if cached is not None:
        _echo(cached.rstrip("\n"))
        data = json.loads(cached)
        sys.exit(EXIT_UNDECIDED if data.get("undecided") else 0)

    report = analyze(w, rank, **caps)
    payload = json.dumps(report.to_json(), indent=2)
    _cache_store(directory, key, payload)
    _echo(payload)
    if report.undecided:
        sys.exit(EXIT_UNDECIDED)


@cli.command("moment")
@click.argument("word_text")
@click.option("-T", "--exponents", "exponents_text", default="1",
              help="comma-separated trace exponents, e.g. 1,-1")
@_rank_option
@click.option("--symbolic", "mode", flag_value="symbolic", default=True)
@click.option("--numeric", "numeric_n", type=int, default=None,
              help="evaluate the exact value at this matrix size")
@click.option("--mc", "mode", flag_value="mc")
@click.option("--n", "mc_n", type=int, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--term-cap", type=int, default=None)
@_config_option
def cmd_moment(word_text, exponents_text, rank, mode, numeric_n, mc_n,
               samples, seed, term_cap, config_path):
    """Exact or Monte Carlo moment of a word measure."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    term_cap = settings.get("term_cap", term_cap, DEFAULT_TERM_CAP)
    exponents = _parse_exponents(exponents_text)
    w = parse_text(word_text, rank)

    if mode == "mc":
        est = estimate_moment(w, exponents,
                              n=settings.get("n", mc_n, 8),
                              samples=settings.get("samples", samples, 100_000),
                              seed=settings.get("seed", seed, 1))
        _emit({"word": str(w), "exponents": list(exponents),
               "estimate": est.to_json()})
        return

    f = moment(w, exponents, term_cap=term_cap)
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
@_rank_option
@click.option("--max-subdivision", "-K", type=int, default=1)
@click.option("--spec-cap", type=int, default=None)
@click.option("--images/--no-images", default=False,
              help="include image subgroup data per component")
@_config_option
def cmd_surfaces(word_texts, rank, max_subdivision, spec_cap, images,
                 config_path):
    """Enumerate matching-built surfaces for a balanced word collection."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    spec_cap = settings.get("spec_cap", spec_cap, DEFAULT_SPEC_CAP)
    words = [parse_text(t, rank) for t in word_texts]
    records = [
        build_surface(spec).to_json(images=images)
        for spec in enumerate_matchings(words, max_subdivision, spec_cap)
    ]
    _emit({"words": [str(w) for w in words], "count": len(records),
           "surfaces": records})


@cli.command("verify")
@click.argument("word_text")
@click.option("-T", "--exponents", "exponent_texts", multiple=True,
              default=("1", "-1", "1,-1", "2,-2"),
              help="repeatable comma-separated exponent lists")
@_rank_option
@click.option("--depth", type=int, default=None)
@click.option("--csv", "as_csv", is_flag=True)
@_analysis_cap_options
@click.option("--term-cap", type=int, default=None)
@_config_option
def cmd_verify(word_text, exponent_texts, rank, depth, as_csv, fringe_cap,
               orbit_cap, genus_cap, term_cap, config_path):
    """Check the expansion statements instance-by-instance for one word."""
    settings = Settings(config_path)
    rank = settings.get("rank", rank, 2)
    caps = settings.analysis_caps(fringe_cap, orbit_cap, genus_cap)
    term_cap = settings.get("term_cap", term_cap, DEFAULT_TERM_CAP)
    w = parse_text(word_text, rank)
    exponent_sets = [_parse_exponents(t) for t in exponent_texts]

    started = time.perf_counter()
    report = analyze(w, rank, **caps)
    if report.pi == "undecided" or report.comm_crit_count == "undecided":
        raise UndecidedError(
            "; ".join(f"{k}: {v}" for k, v in report.undecided.items())
        )
    rows = verify_word(w, exponent_sets, report.pi, report.comm_crit_count,
                       depth=depth, term_cap=term_cap)
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
        _echo("\n".join(lines))
        return
    _emit({"rows": rows, "timings": {"total_seconds": elapsed}})


if __name__ == "__main__":
    main()

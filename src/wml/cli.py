"""Command-line interface: parse | invariants | moment | surfaces | verify.

An argparse shell over the library: every command parses its flags, reads
config fallbacks and the library's default caps, calls one library entry
point and prints the result.  Output is JSON by default (CSV for verify
tables on request).  Exact rational functions are printed as
integer-coefficient fraction strings, never floats.  Results that only
depend on the word and the flags are cached by canonical word form under
``--cache-dir`` (or ``$WML_CACHE``), written atomically so concurrent
invocations are safe.

Exit codes: 0 ok, 2 parse error, invalid input or usage error, 3
undecided at a resource cap, 4 internal.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
import time

from . import __version__
from .errors import _MAX_PRINTED_COUNT, _PRINTED_DIGITS, ParseError, \
    UndecidedError
from .invariants import DEFAULT_GENUS_CAP, analyze
from .montecarlo import estimate_moment
from .ratfunc import MAX_LAURENT_DEPTH
from .stallings import DEFAULT_FRINGE_VERTEX_CAP
from .surfaces import (DEFAULT_SPEC_CAP, build_surface, count_matchings,
                       enumerate_matchings)
from .weingarten import DEFAULT_TERM_CAP, moment, verify_word
from .whitehead import DEFAULT_ORBIT_CAP
from .words import parse as parse_text

EXIT_INPUT = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4

# characters gathered into one write of a streamed payload
WRITE_SIZE = 1 << 16

# every key a config file may set, whichever command reads it
CONFIG_KEYS = ("rank", "fringe_cap", "orbit_cap", "genus_cap", "term_cap",
               "spec_cap", "seed", "samples", "n", "cache_dir")


def _load_config(path):
    """The ``key = value`` pairs of the config file at ``path``; a key
    outside ``CONFIG_KEYS`` is refused, so a misspelt one is not lost."""
    values = {}
    if not path:
        return values
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: "
                         f"{exc.strerror}") from None
    with fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"config file {path!r}: unknown key "
                                 f"{key!r} (known: {', '.join(CONFIG_KEYS)})")
            values[key] = value
    return values


class Settings:
    """Flag values with config-file fallbacks."""

    def __init__(self, args):
        self.args = args
        self.config = _load_config(args.config)

    def get(self, name, default):
        """The flag stored under ``name``, else the config file's ``name``,
        else ``default``."""
        flag_value = getattr(self.args, name)
        if flag_value is not None:
            return flag_value
        if name in self.config:
            value = self.config[name]
            try:
                return int(value)
            except ValueError:
                raise ValueError(
                    f"config file {self.args.config!r}: {name} must be an "
                    f"integer, got {value!r}") from None
        return default

    def cap(self, name, default):
        """The resource cap ``name``, read as :meth:`get` reads it.  A
        negative cap bounds nothing, so it is refused."""
        value = self.get(name, default)
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")
        return value

    def analysis_caps(self):
        """The caps of :func:`wml.invariants.analyze`, by parameter name."""
        return {
            "fringe_cap": self.cap("fringe_cap", DEFAULT_FRINGE_VERTEX_CAP),
            "orbit_cap": self.cap("orbit_cap", DEFAULT_ORBIT_CAP),
            "genus_cap": self.cap("genus_cap", DEFAULT_GENUS_CAP),
        }


def _cache_dir(flag_value, settings):
    """The cache directory in use, created if missing, or None."""
    directory = flag_value or settings.config.get("cache_dir") \
        or os.environ.get("WML_CACHE")
    if directory:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use cache directory {directory!r}: "
                             f"{exc.strerror}") from None
    return directory


def _cache_lookup(directory, key):
    """The cached entry as ``(text, report)``, or None for a miss: no
    entry, or one that is not UTF-8 text holding a JSON object.  An entry
    that cannot be read (a directory in its place, say) is bad input."""
    if not directory:
        return None
    path = os.path.join(directory, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except (FileNotFoundError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    except OSError as exc:
        raise ValueError(f"cannot use cache entry {path!r}: "
                         f"{exc.strerror}") from None
    return (text, data) if isinstance(data, dict) else None


def _cache_store(directory, key, payload_text):
    if not directory:
        return
    import tempfile

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
    import hashlib

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
    """Print one stdout payload in full."""
    _echo_pieces((text,))


def _echo_pieces(pieces):
    """Print the text ``pieces``, then a newline, in writes of about
    ``WRITE_SIZE`` characters, so a payload made piece by piece is never
    held whole and costs no write per piece.

    Under ``python -u`` (``PYTHONUNBUFFERED``) ``sys.stdout`` hands each
    string to a single write() on the file descriptor.  On a pipe that
    write returns short when the process is stopped and continued
    (SIGSTOP/SIGCONT, as job control does), and the text layer drops the
    rest, so a large payload was cut off with exit status 0.  Unbuffered
    output therefore goes through a loop that resumes after a short write.
    """
    stream = sys.stdout
    raw = getattr(stream, "buffer", None)
    if isinstance(raw, io.FileIO):
        stream.flush()

        def write(text):
            data = memoryview(text.encode(stream.encoding, stream.errors))
            while data:
                data = data[raw.write(data):]
    else:
        write = stream.write
    pending, size = [], 0
    for piece in itertools.chain(pieces, ("\n",)):
        pending.append(piece)
        size += len(piece)
        if size >= WRITE_SIZE:
            write("".join(pending))
            pending, size = [], 0
    write("".join(pending))
    stream.flush()


def _emit(data):
    """Print ``json.dumps(data, indent=2)`` as the encoder makes it, 1024
    tokens at a time, so neither the text nor its tokens (a few small
    strings per letter of a long word) are held whole."""
    pieces = json.JSONEncoder(indent=2).iterencode(data)
    _echo_pieces(iter(lambda: "".join(itertools.islice(pieces, 1024)), ""))


class _UsageError(Exception):
    """A command line that names no command, an unknown option or a bad
    option value."""


def _parse_exponents(text):
    try:
        exps = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise _UsageError(f"bad exponent list {text!r}")
    if not exps or any(m == 0 for m in exps):
        raise _UsageError("exponents must be nonzero integers")
    return exps


def cmd_parse(args, settings):
    """Parse a word and print its canonical form."""
    rank = settings.get("rank", 2)
    w = parse_text(args.word_text, rank)
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


def cmd_invariants(args, settings):
    """Primitivity rank, commutator length, and critical-subgroup data."""
    rank = settings.get("rank", 2)
    caps = settings.analysis_caps()
    w = parse_text(args.word_text, rank)

    directory = None if args.no_cache else _cache_dir(args.cache_dir, settings)
    # the key reads the whole word, so it is computed only for a cache
    key = _cache_key("invariants", w, caps) if directory else None
    cached = _cache_lookup(directory, key)
    if cached is not None:
        text, data = cached
        # an entry serves only the word and rank it names; any other is a
        # miss, which the fresh report below overwrites
        entry_rank = data.get("rank")
        if data.get("word") == str(w) and type(entry_rank) is int \
                and entry_rank == rank:
            _echo(text.rstrip("\n"))
            sys.exit(EXIT_UNDECIDED if data.get("undecided") else 0)

    report = analyze(w, rank, **caps)
    payload = json.dumps(report.to_json(), indent=2)
    _cache_store(directory, key, payload)
    _echo(payload)
    if report.undecided:
        sys.exit(EXIT_UNDECIDED)


def cmd_moment(args, settings):
    """Exact or Monte Carlo moment of a word measure."""
    rank = settings.get("rank", 2)
    term_cap = settings.cap("term_cap", DEFAULT_TERM_CAP)
    exponents = _parse_exponents(args.exponents)
    w = parse_text(args.word_text, rank)

    if args.mode == "mc":
        est = estimate_moment(w, exponents,
                              n=settings.get("n", 8),
                              samples=settings.get("samples", 100_000),
                              seed=settings.get("seed", 1))
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
    if args.numeric is not None:
        value = f.evaluate(args.numeric)
        if max(abs(value.numerator), value.denominator) > _MAX_PRINTED_COUNT:
            raise ValueError(f"--numeric gives a value of more than "
                             f"{_PRINTED_DIGITS} digits")
        data["value_at_n"] = {
            "n": args.numeric,
            "value": [value.numerator, value.denominator],
        }
    _emit(data)


def cmd_surfaces(args, settings):
    """Enumerate matching-built surfaces for a balanced word collection."""
    rank = settings.get("rank", 2)
    spec_cap = settings.cap("spec_cap", DEFAULT_SPEC_CAP)
    words = [parse_text(t, rank) for t in args.word_texts]
    count = count_matchings(words, args.max_subdivision, spec_cap)
    records = (
        json.dumps(build_surface(spec).to_json(images=args.images), indent=2)
        for spec in enumerate_matchings(words, args.max_subdivision, spec_cap)
    )
    # there is always a first record; it is built before the header, so
    # an error leaves stdout empty
    first = next(records)
    _echo_pieces(_surfaces_text([str(w) for w in words], count,
                                itertools.chain((first,), records)))


def _surfaces_text(words, count, records):
    """The pieces of ``json.dumps({"words": words, "count": count,
    "surfaces": [...]}, indent=2)`` around the nonempty stream of
    ``records``, each already dumped with ``indent=2``."""
    head = json.dumps({"words": words, "count": count}, indent=2)
    yield head[:-2] + ',\n  "surfaces": ['
    separator = "\n"
    for text in records:
        yield separator + "    " + text.replace("\n", "\n    ")
        separator = ",\n"
    yield "\n  ]\n}"


def cmd_verify(args, settings):
    """Check the expansion statements instance-by-instance for one word."""
    rank = settings.get("rank", 2)
    caps = settings.analysis_caps()
    term_cap = settings.cap("term_cap", DEFAULT_TERM_CAP)
    w = parse_text(args.word_text, rank)
    exponent_sets = [_parse_exponents(t) for t in
                     args.exponents or ("1", "-1", "1,-1", "2,-2")]
    if args.depth is not None and not 0 <= args.depth <= MAX_LAURENT_DEPTH:
        raise ValueError(f"--depth must be between 0 and "
                         f"{MAX_LAURENT_DEPTH}, got {args.depth}")

    started = time.perf_counter()
    report = analyze(w, rank, **caps)
    if report.pi == "undecided" or report.comm_crit_count == "undecided":
        raise UndecidedError(
            "; ".join(f"{k}: {v}" for k, v in report.undecided.items())
        )
    rows = verify_word(w, exponent_sets, report.pi, report.comm_crit_count,
                       depth=args.depth, term_cap=term_cap)
    elapsed = time.perf_counter() - started

    if args.csv:
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises usage errors for ``main`` to report,
    spells help ``--help`` only and takes no abbreviated long options."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help",
                          help="show this message and exit")

    def error(self, message):
        raise _UsageError(message)


_CAP_OPTIONS = (
    ("--fringe-cap", "largest core-graph vertex count enumerated "
     f"(default {DEFAULT_FRINGE_VERTEX_CAP})"),
    ("--orbit-cap", "most minimal-level states explored by the orbit search "
     f"(default {DEFAULT_ORBIT_CAP})"),
    ("--genus-cap", "largest commutator length reported exactly "
     f"(default {DEFAULT_GENUS_CAP})"),
)
_TERM_CAP_HELP = ("most Weingarten pair-sum terms charged per moment "
                  f"(default {DEFAULT_TERM_CAP})")


def _parser():
    parser = _Parser(prog="wml", description="Free-group word invariants "
                     "and exact unitary word-measure moments.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run, caps=False, nargs=None):
        sub = commands.add_parser(name, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        if nargs:
            sub.add_argument("word_texts", nargs=nargs,
                             help='balanced words, e.g. "[x,y]" "[y,x]"')
        else:
            sub.add_argument("word_text", help='a word, e.g. "[x,y]" or '
                             '"x^2 y^-3 x y"')
        sub.add_argument("--rank", type=int, help="ambient rank (default 2)")
        sub.add_argument("--config", help="key = value file of fallback "
                         "settings (default none)")
        for flag, text in _CAP_OPTIONS if caps else ():
            sub.add_argument(flag, type=int, help=text)
        return sub

    command("parse", cmd_parse)

    sub = command("invariants", cmd_invariants, caps=True)
    sub.add_argument("--cache-dir", help="directory of cached reports "
                     "(default $WML_CACHE, else no cache)")
    sub.add_argument("--no-cache", action="store_true",
                     help="neither read nor write a cache (default off)")

    sub = command("moment", cmd_moment)
    sub.add_argument("-T", "--exponents", default="1",
                     help="comma-separated trace exponents, e.g. 1,-1 "
                          "(default 1)")
    sub.add_argument("--symbolic", dest="mode", action="store_const",
                     const="symbolic", default="symbolic",
                     help="the exact moment as a rational function of n "
                          "(the default)")
    sub.add_argument("--mc", dest="mode", action="store_const", const="mc",
                     help="a seeded Monte Carlo estimate over Haar "
                          "unitaries instead")
    sub.add_argument("--numeric", type=int,
                     help="also evaluate the exact value at this matrix "
                          "size (default none)")
    sub.add_argument("--n", type=int,
                     help="matrix size of --mc (default 8)")
    sub.add_argument("--samples", type=int,
                     help="sample count of --mc (default 100000)")
    sub.add_argument("--seed", type=int,
                     help="Philox seed of --mc, 0 to 2^64 - 1 (default 1)")
    sub.add_argument("--term-cap", type=int, help=_TERM_CAP_HELP)

    sub = command("surfaces", cmd_surfaces, nargs="+")
    sub.add_argument("-K", "--max-subdivision", type=int, default=1,
                     help="most matchings per generator (default 1)")
    sub.add_argument("--spec-cap", type=int,
                     help="most matching collections enumerated "
                          f"(default {DEFAULT_SPEC_CAP})")
    sub.add_argument("--images", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="include image subgroup data per component "
                          "(default off)")

    sub = command("verify", cmd_verify, caps=True)
    # "append" adds to a default list, so cmd_verify fills in the default
    sub.add_argument("-T", "--exponents", action="append",
                     help="repeatable comma-separated exponent lists "
                          "(default: 1, -1, 1,-1 and 2,-2)")
    sub.add_argument("--depth", type=int,
                     help="Laurent terms past the leading one, 0 to "
                          f"{MAX_LAURENT_DEPTH} (default pi + 2; 4 for "
                          "infinite pi)")
    sub.add_argument("--csv", action="store_true",
                     help="print the table as CSV, not JSON (default off)")
    sub.add_argument("--term-cap", type=int, help=_TERM_CAP_HELP)
    return parser


def _attach_exponents(argv):
    """``-T VALUE`` as ``-T=VALUE``: argparse takes a value such as ``-1,1``
    for an unknown option, so it is attached to its flag."""
    rest = iter(argv)
    return [f"{arg}={next(rest, '')}" if arg in ("-T", "--exponents")
            else arg for arg in rest]


def main(argv=None):
    """Console entry point: run the command line ``argv`` (by default
    ``sys.argv[1:]``).  Library errors, usage errors and anything else
    become one line on stderr and the documented exit code."""
    try:
        args = _parser().parse_args(_attach_exponents(
            sys.argv[1:] if argv is None else argv))
        args.run(args, Settings(args))
        return
    except ParseError as exc:  # a ValueError, so it is matched first
        message, code = f"parse error: {exc}", EXIT_INPUT
    except ValueError as exc:
        message, code = f"invalid input: {exc}", EXIT_INPUT
    except UndecidedError as exc:
        message, code = f"undecided: {exc}", EXIT_UNDECIDED
    except _UsageError as exc:
        message, code = f"error: {exc}", EXIT_INPUT
    except (Exception, KeyboardInterrupt) as exc:  # noqa: BLE001 - the CLI boundary
        message, code = f"internal error: {exc}", EXIT_INTERNAL
    print(message, file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()

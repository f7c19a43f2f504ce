"""Command-line entry point: one subcommand per pipeline.

Subcommands: ``sketch`` (build a binary sketch from element tokens),
``compare`` (score two sketch files), ``bounds`` (error-curve CSV),
``linkpred`` (link-prediction benchmark CSV), ``dedup`` (document
deduplication benchmark CSV).

Every run is fully determined by its flags: on one machine and numpy/BLAS
build, the same arguments and seed give a byte-identical primary output.
Across CPUs, sketch files and MinHash, SimHash and unit or 1/degree exact
scores stay identical; DotHash compare estimates and pair scores (BLAS
dots) may differ in the last bits.  Adamic-Adar and IDF weights take the
C library's ``log`` through ``math.log``.
A CSV's columns are its row type's fields, and every ``*_seconds`` column
is 0.000000 unless --timings is given.

``sketch`` and ``compare`` go through the estimator table of
:mod:`dothash.sketches`: ``compare`` scores with the pair scorer that link
prediction and dedup use, once kind, size and seed are found to match.
Two empty sketches compare by the rule that module's docstring states.
Each subcommand imports the pipeline module it runs when it runs, so
``sketch``, ``compare`` and ``bounds`` start without loading ``linkpred``
or ``dedup``.  The argument parser is built once, when this module is
imported, and every :func:`main` call parses with it.

Exit codes: 0 success (also when the reader of stdout closes the pipe
early), 1 usage error, 2 data/format error (also a subcommand that writes
to stdout or reads stdin started with that stream closed), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from .encoding import _CHUNK_BYTES, _PER_INPUT_BYTES, slice_ids
from .sketches import ESTIMATORS, MAX_SKETCH_SIZE, build_sketch, read_sketch, require_same_form, write_sketch

# Not called here; bench/spans.py wraps these names until ROADMAP item 1 moves its probes.
from .encoding import element_id  # noqa: F401
from .sketches import dothash_build, dothash_intersection, dothash_jaccard, minhash_build  # noqa: F401
from .sketches import minhash_jaccard, simhash_build, simhash_similarity  # noqa: F401


class _UsageError(Exception):
    """Bad flag combination; reported like an argparse usage error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# The ASCII bytes that end a line for ``str.splitlines``, and the ones that
# ``str.strip`` removes, from Python's own definitions.
_LINE_BREAK = np.array([len(f"a{chr(c)}a".splitlines()) == 2 for c in range(128)])
_SPACE = np.array([chr(c).isspace() for c in range(128)])

# Most bytes and lines of a token file hashed at a time; 16k lines' bounds
# and hashing temporaries come to about 1 MiB.
_TOKEN_WINDOW = 1 << 18
_TOKEN_LINES = _CHUNK_BYTES // _PER_INPUT_BYTES


def _line_ends(codes: np.ndarray, lo: int) -> np.ndarray:
    """The positions of the line breaks in ``codes[lo : lo + _TOKEN_WINDOW]``, and ``len(codes)`` if it ends there."""
    part = codes[lo : lo + _TOKEN_WINDOW]
    # Every line break is a control byte, below 32: look only those up.
    found = np.flatnonzero(part < 32)
    found = found[_LINE_BREAK[part[found]]]
    found += lo
    return found if lo + part.size < codes.size else np.append(found, codes.size)


def _token_bytes(data: bytes, start: int, stop: int) -> bytes:
    """The tokens of ``data[start:stop]`` in UTF-8, each ended by a LF; ValueError names a byte that is not UTF-8."""
    try:
        lines = data[start:stop].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        exc = UnicodeDecodeError(exc.encoding, data, start + exc.start, start + exc.end, exc.reason)
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {lineno}: {exc}") from None
    return "\n".join([*filter(None, map(str.strip, lines)), ""]).encode("utf-8")


def _read_elements(path: str) -> np.ndarray:
    """The element ids of the tokens, one per line; blank lines are skipped.

    Lines split as ``str.splitlines`` splits them, and a token is its line
    after ``str.strip``.  The input is read whole and hashed a window at a
    time (:func:`~dothash.encoding.slice_ids`): from its bytes when its
    lines are ASCII and ``str.strip`` would not change them, else through
    :func:`_token_bytes`.  A byte that is not UTF-8 is a ValueError naming
    its line.
    """
    if path == "-":
        stdin = sys.stdin
        if stdin is None:  # started with stdin closed
            raise ValueError("stdin is closed")
        data = stdin.buffer.read() if hasattr(stdin, "buffer") else stdin.read().encode("utf-8")
    else:
        with open(path, "rb") as fp:
            data = fp.read()
    codes = np.frombuffer(data, dtype=np.uint8)
    pieces = [np.empty(0, dtype=np.uint64)]
    # Line ends at or after `start`: its breaks, then the input's end once searched.
    ends = np.empty(0, dtype=np.int64)
    start = scanned = 0
    while start < len(data):
        # Search each byte once: a whole window past `start`, or on to the next break.
        while scanned < len(data) and (scanned < start + _TOKEN_WINDOW or not ends.size):
            ends = np.concatenate((ends, _line_ends(codes, scanned)))
            scanned += _TOKEN_WINDOW
        # At most _TOKEN_WINDOW bytes and _TOKEN_LINES lines, cut after a break, which
        # is never inside a UTF-8 sequence; a longer line runs on to its break.
        lines = min(max(int(np.searchsorted(ends, start + _TOKEN_WINDOW)), 1), _TOKEN_LINES)
        stop = int(ends[lines - 1]) + 1
        # The window's lines, in bytes from `start`; a CRLF leaves an empty line.
        window, stops = codes[start:stop], ends[:lines] - start
        starts = np.concatenate(([0], stops + 1))[:-1]
        keep = stops > starts
        starts, stops = starts[keep], stops[keep]
        if window.max() >= 128 or np.any(_SPACE[window[starts]]) or np.any(_SPACE[window[stops - 1]]):
            window = np.frombuffer(_token_bytes(data, start, stop), dtype=np.uint8)
            stops = np.flatnonzero(window == 10)
            starts = np.concatenate(([0], stops + 1))[:-1]
        pieces.append(slice_ids(window, starts, stops))
        ends, start = ends[lines:], stop
    return np.concatenate(pieces)


def _resolve_size(args: argparse.Namespace, limit: int | None = None) -> int | None:
    """The --k (minhash) or --dims (dothash, simhash) value, None for exact; any other size flag is a usage error."""
    estimator = args.estimator
    used = ESTIMATORS[estimator].size_flag
    size = None if used is None else getattr(args, used)
    if used is not None and size is None:
        raise _UsageError(f"{estimator} requires --{used}")
    for name in ("dims", "k"):
        if name != used and getattr(args, name) is not None:
            raise _UsageError(f"{estimator} does not take --{name}")
    if limit is not None and size > limit:
        raise ValueError(f"--{used} {size} exceeds the sketch file's limit of {limit}")
    return size


def _cmd_sketch(args: argparse.Namespace) -> int:
    size = _resolve_size(args, limit=MAX_SKETCH_SIZE)
    sketch = build_sketch(args.estimator, args.seed, size, _read_elements(args.input))
    with open(args.out, "wb") as fp:
        write_sketch(sketch, fp)
    summary = {
        "kind": args.estimator,
        "dims_or_k": size,
        "cardinality": sketch.cardinality,
        "seed": args.seed,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    with open(args.sketch_a, "rb") as fp:
        a = read_sketch(fp)
    with open(args.sketch_b, "rb") as fp:
        b = read_sketch(fp)
    entry, size = require_same_form(a, b)
    # The two payloads as rows 0 and 1, scored as one pair by the scorer score_pairs uses.
    rows = np.stack([getattr(a, entry.payload), getattr(b, entry.payload)])
    pair, cardinalities = np.arange(2)[:, None], np.array([[a.cardinality], [b.cardinality]])
    record: dict = {
        "kind": entry.name,
        "cardinalities": [a.cardinality, b.cardinality],
        "dims_or_k": size,
        "metric": entry.metric,
    }
    for key, jaccard in entry.views:
        # Jaccard is undefined for two empty sets; compare reports it as null.
        defined = not jaccard or cardinalities.any()
        record[key] = float(entry.score(rows, size, *pair, *cardinalities, jaccard)[0]) if defined else None
    print(json.dumps(record, sort_keys=True))
    return 0


# The CSV header's name for a row field, where it differs from the field's own.
_COLUMNS = {"dims": "d", "k": "K"}


def _write_rows(path: str, kind: type, rows: Sequence[Any], timings: bool = False) -> None:
    """Write ``rows``, instances of the dataclass ``kind``, as CSV to ``path``, or to stdout for '-'.

    The header is ``kind``'s field names, renamed by :data:`_COLUMNS`.  Each
    value goes to ``csv.writer`` as it is, which writes a float as its
    ``repr``; a ``*_seconds`` field reads 0.000000 unless ``timings``.
    """
    names = [field.name for field in dataclasses.fields(kind)]
    out = sys.stdout if path == "-" else open(path, "w", encoding="utf-8", newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([_COLUMNS.get(name, name) for name in names])
        for row in rows:
            values = [getattr(row, name) for name in names]
            writer.writerow([(f"{value:.6f}" if timings else "0.000000") if name.endswith("_seconds") else value
                             for name, value in zip(names, values)])
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_bounds(args: argparse.Namespace) -> int:
    from . import bounds as bounds_mod

    # A NaN or infinite end makes NaN grid points, which bounds_sweep rejects.
    with np.errstate(invalid="ignore"):
        epsilons = np.linspace(args.eps_min, args.eps_max, args.eps_points)
    rows = bounds_mod.bounds_sweep(
        args.size_a, args.size_b, args.size_int,
        dims_list=args.dims, epsilons=epsilons, trials=args.trials, seed0=args.seed,
    )
    _write_rows(args.out, bounds_mod.BoundsRow, rows)
    return 0


def _cmd_linkpred(args: argparse.Namespace) -> int:
    from . import linkpred as linkpred_mod

    size = _resolve_size(args)
    graph = linkpred_mod.load_edge_list(args.edges)
    point = linkpred_mod.SweepPoint(
        estimator=linkpred_mod.Estimator(args.estimator),
        metric=linkpred_mod.Metric(args.metric),
        dims_or_k=size,
    )
    rows = linkpred_mod.run_linkpred_benchmark(
        graph, [point], k_values=args.k_at,
        test_fraction=args.test_fraction, neg_per_pos=args.neg_per_pos,
        repeats=args.repeats, seed=args.seed,
    )
    _write_rows(args.out, linkpred_mod.BenchmarkRow, rows, args.timings)
    return 0


def _cmd_dedup(args: argparse.Namespace) -> int:
    from . import dedup as dedup_mod

    size = _resolve_size(args)
    corpus = dedup_mod.load_corpus_jsonl(args.corpus)
    pairs = dedup_mod.load_pairs_csv(args.labels)
    config = dedup_mod.DedupConfig(
        estimator=dedup_mod.Estimator(args.estimator),
        metric=dedup_mod.DedupMetric(args.metric),
        dims_or_k=size,
        shingle_width=args.shingle_width,
        hits_k=args.k_at,
        negatives=args.negatives,
        seed=args.seed,
    )
    result = dedup_mod.run_dedup_benchmark(corpus, pairs, config)
    _write_rows(args.out, dedup_mod.DedupResult, [result], args.timings)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dothash",
        description="Set-similarity sketching: build and compare sketches, "
                    "compute error bounds, and run the link-prediction and "
                    "deduplication benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sketch = sub.add_parser(
        "sketch", help="build a sketch from element tokens (one per line)",
        description="Read one element token per line (blank lines skipped), hash "
                    "each to a 64-bit element id, and write the binary sketch. "
                    "Prints a JSON summary to stdout.")
    p_sketch.add_argument("--estimator", required=True,
                          choices=[name for name, entry in ESTIMATORS.items() if entry.code])
    p_sketch.add_argument("--input", default="-", help="token file, or '-' for stdin (default)")
    p_sketch.add_argument("--out", required=True, help="output sketch file")
    p_sketch.add_argument("--dims", type=int, help="sketch dimensions (dothash/simhash)")
    p_sketch.add_argument("--k", type=int, help="number of hash functions (minhash)")
    p_sketch.add_argument("--seed", type=int, default=0, help="codebook / hash seed (default 0)")
    p_sketch.set_defaults(func=_cmd_sketch)

    p_compare = sub.add_parser(
        "compare", help="compare two sketch files",
        description="Print a JSON record with the similarity estimate of two "
                    "sketch files of the same kind, seed, and size. DotHash "
                    "reports the intersection estimate plus a Jaccard view; "
                    "MinHash reports Jaccard; SimHash reports its Hamming "
                    "similarity ranking score.")
    p_compare.add_argument("sketch_a")
    p_compare.add_argument("sketch_b")
    p_compare.set_defaults(func=_cmd_compare)

    p_bounds = sub.add_parser(
        "bounds", help="error-bound curves as CSV",
        description="Emit CSV rows (d, epsilon, chebyshev, clt, empirical) for "
                    "the estimator error probability P(|X - i| >= eps*i) at the "
                    "given set sizes, over an epsilon grid. The empirical column "
                    "is a Monte-Carlo over codebook seeds seed..seed+trials-1 (mod 2^64).")
    p_bounds.add_argument("--size-a", type=int, required=True, help="|A|")
    p_bounds.add_argument("--size-b", type=int, required=True, help="|B|")
    p_bounds.add_argument("--size-int", type=int, required=True, help="|A intersect B|")
    p_bounds.add_argument("--dims", type=int, nargs="+", required=True, help="sketch dimensions")
    p_bounds.add_argument("--eps-min", type=float, default=0.05)
    p_bounds.add_argument("--eps-max", type=float, default=0.5)
    p_bounds.add_argument("--eps-points", type=int, default=20)
    p_bounds.add_argument("--trials", type=int, default=1000, help="Monte-Carlo seeds per d")
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--out", default="-", help="CSV path, or '-' for stdout (default)")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_link = sub.add_parser(
        "linkpred", help="link-prediction benchmark",
        description="Load a '#'-commented whitespace edge list, hold out a "
                    "fraction of edges, sample negative non-edges, score pairs "
                    "by neighborhood similarity, and write Hits@K rows as CSV.")
    p_link.add_argument("--edges", required=True, help="edge-list file: two labels per line")
    p_link.add_argument("--estimator", required=True, choices=list(ESTIMATORS))
    p_link.add_argument("--metric", required=True,
                        choices=["jaccard", "common_neighbors", "adamic_adar", "resource_allocation"])
    p_link.add_argument("--dims", type=int, help="sketch dimensions (dothash/simhash)")
    p_link.add_argument("--k", type=int, help="number of hash functions (minhash)")
    p_link.add_argument("--test-fraction", type=float, default=0.1)
    p_link.add_argument("--neg-per-pos", type=int, default=2)
    p_link.add_argument("--k-at", type=int, nargs="+", default=(50,), help="Hits@K cutoffs")
    p_link.add_argument("--repeats", type=int, default=3)
    p_link.add_argument("--seed", type=int, default=0)
    p_link.add_argument("--out", default="-", help="CSV path, or '-' for stdout (default)")
    p_link.add_argument("--timings", action="store_true",
                        help="write measured wall-clock columns (not reproducible)")
    p_link.set_defaults(func=_cmd_linkpred)

    p_dedup = sub.add_parser(
        "dedup", help="document deduplication benchmark",
        description="Load a JSON-lines corpus ({'id','text'} per line) and an "
                    "'id_a,id_b' CSV of duplicate pairs; shingle, sketch, and "
                    "rank the labeled pairs against sampled negatives; write a "
                    "Hits@K CSV row.")
    p_dedup.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p_dedup.add_argument("--labels", required=True, help="CSV of duplicate pairs")
    p_dedup.add_argument("--estimator", required=True, choices=list(ESTIMATORS))
    p_dedup.add_argument("--metric", required=True, choices=["jaccard", "idf"])
    p_dedup.add_argument("--dims", type=int, help="sketch dimensions (dothash/simhash)")
    p_dedup.add_argument("--k", type=int, help="number of hash functions (minhash)")
    p_dedup.add_argument("--shingle-width", type=int, default=3)
    p_dedup.add_argument("--k-at", type=int, default=25, help="Hits@K cutoff (default 25)")
    p_dedup.add_argument("--negatives", type=int, default=1000)
    p_dedup.add_argument("--seed", type=int, default=0)
    p_dedup.add_argument("--out", default="-", help="CSV path, or '-' for stdout (default)")
    p_dedup.add_argument("--timings", action="store_true",
                         help="write measured wall-clock columns (not reproducible)")
    p_dedup.set_defaults(func=_cmd_dedup)
    return parser


# Built once, at import, and shared by every main() call: a parse hands its
# defaults to the namespace as they are, so no default may be mutable.
_PARSER = build_parser()


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at os.devnull, so the flush at exit cannot raise."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no descriptor, such as a StringIO
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    writes_stdout = args.func in (_cmd_sketch, _cmd_compare) or getattr(args, "out", None) == "-"
    if sys.stdout is None and writes_stdout:  # started with stdout closed
        print("dothash: error: stdout is closed", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        # Flushed here, so a reader that closed the pipe early is caught below, not at exit.
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"dothash: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader took what it wanted, as ``dothash bounds | head -1`` does.
        _stdout_to_devnull()
        return 0
    except (ValueError, OSError) as exc:
        print(f"dothash: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes the host cannot allocate, such as --dims 5000000000
        print(f"dothash: error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violations and bugs
        print(f"dothash: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

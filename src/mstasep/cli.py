"""Command-line surface: batch probabilities, verification suites, simulation.

Job configuration lives in a single JSON file; unknown keys anywhere are
rejected so typos surface immediately.  Probabilities are printed with 17
significant digits so output files can be compared across implementations:
each CSV float cell is exactly ``'%.17g' % v``, computed for a whole column
at once in double-double arithmetic (values within 1e-6 of a rounding tie,
infinities and NaN are formatted one at a time), and the CSV body is one
(rows, width) byte matrix with every field at fixed slots and 0 bytes where
no character goes, written once with the 0 bytes dropped.

``prob`` holds its targets as (T, N) int64 position and word arrays from
start to finish: explicit targets in config order, or the ``"window"``
states listed directly by :func:`core.window_states`, never through the
Markov-chain oracle.  It hands them to :func:`bethe.transition_arrays` and
writes the rows from the returned columns.

Exit codes: 0 success or pass, 1 verification failure, 2 configuration
error (also an output path that cannot be written; more than six particles,
or a time the spectral route rejects (scale t past its overflow bound), and a
``"window"`` whose position and word arrays would pass the spectral route's
byte budget, ``prob`` checking these before enumerating a window; a term walk
past that budget; a target too far from the start for int64, or one whose
value overflows (:class:`bethe.OverflowRisk`); ``--samples`` below 1; a
negative ``--seed`` for ``simulate`` or ``verify``; a ``verify`` run with
``--trials`` below 1 or a ``--size`` outside its suite's range: yang-baxter
and welldef 3 to 6, oracle 2 to 3, stochastic 1 to 4, boundary 2 to 5), 3 an error bound
``est_error`` that reaches ``adapt_tol`` (:class:`bethe.NotConverged`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bethe, oracle
from .core import (
    ParticleState,
    RateTable,
    build_sector,
    check_table,
    check_time,
    default_window,
    state_arrays,
    validate_state,
    window_size,
    window_states,
)
from .rmatrix import build_all_A, contour_bound, relation_residual

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3


class ConfigError(ValueError):
    """The job configuration is malformed."""


@dataclass(frozen=True)
class JobConfig:
    rates: RateTable
    initial: ParticleState
    time: float
    targets: tuple[ParticleState, ...] | str  # explicit states or "window"
    spectral: bethe.SpectralParams
    output_format: Optional[str] = None
    output_path: Optional[str] = None


def _require_keys(mapping: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


def _parse_state(obj, where: str) -> ParticleState:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object with positions and species")
    _require_keys(obj, {"positions", "species"}, {"positions", "species"}, where)
    try:
        return ParticleState(tuple(obj["positions"]), tuple(obj["species"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad state in {where}: {exc}") from exc


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON job configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top level must be a JSON object")
    _require_keys(
        data,
        {"rates", "initial", "time", "targets", "spectral", "output"},
        {"rates", "initial", "time", "targets"},
        "config",
    )
    try:
        rates = RateTable(tuple(data["rates"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad rates: {exc}") from exc
    initial = _parse_state(data["initial"], "initial")
    try:
        validate_state(initial, rates)
    except ValueError as exc:
        raise ConfigError(f"bad state in initial: {exc}") from exc
    time = data["time"]
    try:
        check_time(time)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    raw_targets = data["targets"]
    targets: tuple[ParticleState, ...] | str
    if raw_targets == "window":
        targets = "window"
    elif isinstance(raw_targets, list):
        targets = tuple(_parse_state(tg, f"targets[{i}]") for i, tg in enumerate(raw_targets))
        try:
            check_table(*state_arrays(targets, rates.n_species), rates.n_species)
        except ValueError as exc:
            raise ConfigError(f"bad targets: {exc}") from exc
    else:
        raise ConfigError('targets must be "window" or a list of states')
    spectral_obj = data.get("spectral", {})
    if not isinstance(spectral_obj, dict):
        raise ConfigError("spectral must be an object")
    _require_keys(spectral_obj, {"adapt_tol"}, set(), "spectral")
    try:
        spectral = bethe.SpectralParams(**spectral_obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad spectral parameters: {exc}") from exc
    out_fmt = out_path = None
    if "output" in data:
        out_obj = data["output"]
        if not isinstance(out_obj, dict):
            raise ConfigError("output must be an object")
        _require_keys(out_obj, {"format", "path"}, set(), "output")
        out_fmt = out_obj.get("format")
        if out_fmt is not None and out_fmt not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {out_fmt!r}")
        out_path = out_obj.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError(f"output path must be a string, got {out_path!r}")
        if out_path == "":
            raise ConfigError("output path must not be empty; use '-' for standard output")
    return JobConfig(
        rates=rates,
        initial=initial,
        time=float(time),
        targets=targets,
        spectral=spectral,
        output_format=out_fmt,
        output_path=out_path,
    )


def target_arrays(cfg: JobConfig) -> tuple[np.ndarray, np.ndarray]:
    """(T, N) int64 positions and words of the job's targets.

    Explicit targets keep their config order.  ``"window"`` lists every state
    reachable from the start inside the default window, sorted by (positions,
    species).  Before it lists them it counts them, and a window whose arrays
    would pass the spectral route's byte budget raises ValueError naming the
    count, as does the window's right edge past int64.
    """
    n = len(cfg.initial)
    if isinstance(cfg.targets, tuple):
        return state_arrays(cfg.targets, n)
    _, hi = default_window(cfg.initial, cfg.rates, cfg.time)
    count = window_size(cfg.initial, hi)
    if 16 * n * count > bethe._CHUNK_BUDGET_BYTES:  # two (T, N) int64 arrays
        raise ValueError(
            f"the window holds {count} states, whose position and word arrays would pass the budget "
            f"of {bethe._CHUNK_BUDGET_BYTES:g} bytes; list fewer targets explicitly"
        )
    return window_states(cfg.initial, hi)


def resolve_targets(cfg: JobConfig) -> list[ParticleState]:
    """The job's targets as states: a list wrapper over :func:`target_arrays`."""
    positions, words = target_arrays(cfg)
    return [ParticleState(x, w) for x, w in zip(positions.tolist(), words.tolist())]


def _g17(value: float) -> bytes:
    """``'%.17g' % value``, one value at a time: the float cells the array route leaves out."""
    return ("%.17g" % value).encode()


_LOG10_2 = math.log10(2.0)
_TIE_BAND = 1e-6  # a scaled value this close to a half-integer is formatted by _g17


class _Decimal:
    """Tables for exact 17-digit decimal conversion of doubles, built on first use.

    Per decimal exponent E = floor(log10 |x|): ``tens[E + 324]`` is the smallest double
    at or above 10**E (E = -324 ... 309; 10**309 is past every double), and
    ``affixes[E + 324]`` holds the bytes ``'%.17g'`` puts before the digits (up to
    "0.000") and after them ("e+dd" or "e-ddd"), each 0-padded to 5 slots.

    A double f * 2**e with 0.5 <= f < 1 has E = E0(e) = floor((e - 1) log10 2) or
    E0(e) + 1.  ``hi`` and ``lo`` hold 10**(16 - E) * 2**e as a double-double, exact to
    about 2**-106, for e in [-1073, 1024] and E - E0(e) in {0, 1}; an entry is computed
    when a value first needs it.  Every entry is an exact constant, so one instance
    serves every caller in the process.
    """

    def __init__(self) -> None:
        tens, affixes = [], []
        for E in range(-324, 309):
            if E >= 0:
                t = float(10**E)
                below = int(t) < 10**E
            else:
                t = 1 / 10**-E
                num, den = t.as_integer_ratio()
                below = num * 10**-E < den
            tens.append(math.nextafter(t, math.inf) if below else t)
            lead = "0." + "0" * (-E - 1) if -4 <= E < 0 else ""
            tail = "" if -4 <= E < 17 else "e%+03d" % E
            affixes.append(lead.ljust(5, "\0") + tail.ljust(5, "\0"))
        self.tens = np.array(tens + [math.inf])
        self.affixes = np.frombuffer("".join(affixes).encode(), dtype=np.uint8).reshape(-1, 10)
        self.hi = np.zeros((2098, 2))
        self.lo = np.zeros((2098, 2))
        self.known = np.zeros((2098, 2), dtype=bool)

    def multipliers(self, e: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """hi and lo of 10**(16 - E) * 2**e, for E = E0(e) + up."""
        key = (e + 1073, up.astype(np.intp))
        if not self.known[key].all():
            from fractions import Fraction  # only when an entry is missing: fractions loads decimal

            need = np.zeros_like(self.known)
            need[key] = True
            for row, col in zip(*np.nonzero(need & ~self.known)):
                b = int(row) - 1073
                c = Fraction(10) ** (16 - math.floor((b - 1) * _LOG10_2) - int(col)) * Fraction(2) ** b
                self.hi[row, col] = hi = float(c)
                self.lo[row, col] = float(c - Fraction(hi))
                self.known[row, col] = True
        return self.hi[key], self.lo[key]


@functools.cache
def _decimal() -> _Decimal:
    return _Decimal()


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: a == hi + lo exactly, each with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(f: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(f (hi + lo)) as int64, and the fraction it dropped, to about 1e-14.

    f * hi is taken exactly as p + err (Dekker's two-product); the integer part of p
    is exact, and the rest, below about 25, carries the fraction.
    """
    p = f * hi
    (fh, fl), (hh, hl) = _split(f), _split(hi)
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl
    whole = np.floor(p)
    rest = (p - whole) + (err + f * lo)
    below = np.floor(rest)
    return whole.astype(np.int64) + below.astype(np.int64), rest - below


def _float_cells(col: np.ndarray) -> np.ndarray:
    """(T, 45) uint8: each value's ``'%.17g'`` bytes at fixed slots, 0 where no character goes.

    Slots: sign, up to "0.000", 17 (digit, point) pairs, then "e", the exponent's sign and
    up to three exponent digits.  E = floor(log10 |x|) is exact, from the binary exponent
    and one comparison with a power of ten; the 17 digits are |x| 10**(16 - E) rounded to
    an integer, in double-double arithmetic.  Values within 1e-6 of a rounding tie,
    infinities and NaN go through :func:`_g17`.
    """
    x = np.asarray(col, dtype=np.float64)
    neg, zero = np.signbit(x), x == 0.0
    a = np.where(np.isfinite(x) & ~zero, np.abs(x), 1.0)
    f, e = np.frexp(a)
    tables = _decimal()
    E = np.floor((e - 1) * _LOG10_2).astype(np.int64)
    up = a >= tables.tens[E + 325]  # 10**(E0 + 1)
    E += up
    D, frac = _scaled(f, *tables.multipliers(e, up))
    D += frac > 0.5
    carry = D == 10**17  # rounded up to the next power of ten
    D[carry] = 10**16
    E += carry
    digits = np.empty((len(x), 17), dtype=np.uint8)
    for k in range(16, -1, -1):
        q = D // 10
        digits[:, k] = D - 10 * q
        D = q
    digits += 48
    nd = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)  # digits left after trailing zeros
    digits[zero, 0] = 48  # zeros took 1.0's one digit and exponent: "0"
    fixed = (E >= -4) & (E < 17)
    digits *= np.arange(17) < np.where(fixed, np.maximum(nd, E + 1), nd)[:, None]
    point = np.where(fixed, np.where(nd > E + 1, E, -1), np.where(nd > 1, 0, -1))
    at = np.flatnonzero(point >= 0)
    ends = tables.affixes[E + 324]
    cells = np.zeros((len(x), 45), dtype=np.uint8)
    cells[:, 0] = np.where(neg, ord("-"), 0)
    cells[:, 1:6] = ends[:, :5]
    cells[:, 6:40:2] = digits
    cells[at, 7 + 2 * point[at]] = ord(".")
    cells[:, 40:] = ends[:, 5:]
    for i in np.flatnonzero(~np.isfinite(x) | (np.abs(frac - 0.5) < _TIE_BAND)).tolist():
        text = _g17(float(x[i]))
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def _int_cells(table: np.ndarray) -> np.ndarray:
    """(T, K, W) uint8: each integer's ``%d`` bytes, 0-padded; each distinct value formatted once."""
    values, inverse = np.unique(table, return_inverse=True)
    text = ["%d" % v for v in values.tolist()]
    width = max(map(len, text), default=1)
    padded = "".join(s.ljust(width, "\0") for s in text).encode()
    return np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)[inverse.reshape(table.shape)]


def _fields(cells: np.ndarray, sep: bytes) -> list:
    """The K cells of each row, ``sep`` between them, as pieces for :func:`_byte_rows`."""
    pieces: list = [cells[:, 0]]
    for k in range(1, cells.shape[1]):
        pieces += [sep, cells[:, k]]
    return pieces


def _byte_rows(pieces: list, rows: int) -> bytes:
    """Rows laid side by side from pieces, each bytes (the same in every row) or a (rows, W)
    uint8 block, then read row by row without the 0 bytes."""
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in pieces]
    buf = np.zeros((rows, sum(widths)), dtype=np.uint8)
    at = 0
    for piece, width in zip(pieces, widths):
        buf[:, at : at + width] = np.frombuffer(piece, dtype=np.uint8) if isinstance(piece, bytes) else piece
        at += width
    data = buf.tobytes()
    del buf  # free the matrix before the compressed copy is made
    return data.translate(None, b"\0")


def _write_columns(
    positions: np.ndarray, words: np.ndarray, columns: dict[str, np.ndarray], fmt: str, path: str
) -> None:
    """One row per state: its positions and species, then ``columns`` in order.

    CSV prints each float as exactly ``'%.17g' % v`` and writes the bytes ``csv.writer``
    writes for these cells: the species cell is quoted when it holds a comma, and rows end
    with CRLF.  The body is one byte matrix, each field at fixed slots, its 0 bytes dropped
    in one pass.  JSON writes a list of objects.  A path that cannot be written raises
    ConfigError.
    """
    keys = ["positions", "species", *columns]
    rows = len(positions)
    xs, ws = _fields(_int_cells(positions), b";"), _fields(_int_cells(words), b",")
    if fmt == "json":
        cells = [_byte_rows([*field, b"\n"], rows).decode().split("\n")[:-1] for field in (xs, ws)]
        cells += [col.tolist() for col in columns.values()]
        data = (json.dumps([dict(zip(keys, row)) for row in zip(*cells)], indent=2) + "\n").encode()
    else:
        quote = [b'"'] if words.shape[1] > 1 else []
        pieces = [*xs, b",", *quote, *ws, *quote]
        for col in columns.values():
            pieces += [b",", _float_cells(col) if col.dtype.kind == "f" else _int_cells(col[:, None])[:, 0]]
        data = (",".join(keys) + "\r\n").encode() + _byte_rows([*pieces, b"\r\n"], rows)
    if path == "-":
        sys.stdout.write(data.decode())
    else:
        try:
            with open(path, "wb") as handle:
                handle.write(data)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _output_path(out: Optional[str], cfg: JobConfig) -> str:
    """``--out``, else the config's output path, else standard output."""
    return next(p for p in (out, cfg.output_path, "-") if p is not None)


def cmd_prob(cfg: JobConfig, out: Optional[str] = None, fmt: Optional[str] = None) -> int:
    """Compute one row per target and write them in target order.

    Explicit targets keep their config order; window targets are sorted by
    (positions, species), as ``simulate`` sorts its rows.
    """
    try:  # the spectral guards, then the targets: no window is enumerated for a rejected job
        bethe.transition_matrix(cfg.initial, [], cfg.time, cfg.rates, params=cfg.spectral)
        positions, words = target_arrays(cfg)
        value, est_error, nodes_used = bethe.transition_arrays(
            cfg.initial, positions, words, cfg.time, cfg.rates, params=cfg.spectral
        )
    except (ValueError, bethe.OverflowRisk) as exc:  # also a far target
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except bethe.NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    columns = {"value": value, "est_error": est_error, "nodes_used": nodes_used}
    _write_columns(positions, words, columns, fmt or cfg.output_format or "csv", _output_path(out, cfg))
    return EXIT_OK


def cmd_simulate(
    cfg: JobConfig,
    n_samples: int,
    seed: int,
    out: Optional[str] = None,
    fmt: Optional[str] = None,
) -> int:
    """Empirical distribution from exact simulation, one row per observed state."""
    if n_samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    try:
        positions, words, count = oracle._tally(cfg.initial, cfg.rates, cfg.time, n_samples, seed)
    except ValueError as exc:  # a hop past the int64 maximum
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    freq = count / n_samples
    columns = {
        "value": freq,
        "est_error": 4.0 * np.sqrt(freq * (1.0 - freq) / n_samples),
        "nodes_used": np.full(len(count), n_samples),
        "count": count,
    }
    _write_columns(positions, words, columns, fmt or cfg.output_format or "csv", _output_path(out, cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _draw_rates(rng: np.random.Generator, n: int) -> RateTable:
    return RateTable(tuple(rng.uniform(0.5, 2.0, size=n)))


def _draw_trials(rng: np.random.Generator, n: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectral values and rates of every trial as (n, trials) arrays, each point in its disk."""
    b = rng.uniform(0.5, 2.0, size=(n, trials))
    mags = rng.uniform(0.2, 0.9, size=(n, trials)) * contour_bound(b)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, trials))
    return mags * np.exp(1j * phases), b


def _suite_welldef(size: int, seed: int, trials: int) -> float:
    """Braid relation: the factor products along (i, i+1, i) and (i+1, i, i+1) agree."""
    xi, b = _draw_trials(np.random.default_rng(seed), size, trials)
    # both products and their difference, at the largest sector (dim size!)
    return max(
        relation_residual("yang_baxter", xi[:, k], b[:, k], size)
        for k in bethe._chunks(trials, 4 * math.factorial(size) ** 2 * 16)
    )


def _suite_oracle(size: int, seed: int, trials: int) -> float:
    rng = np.random.default_rng(seed)
    initial_positions = tuple(range(size))
    words = {
        2: [(1, 1), (1, 2), (2, 1), (2, 2)],
        3: [(1, 2, 3), (3, 2, 1), (2, 1, 2)],
    }[size]
    times = (0.1, 0.5, 1.0)
    worst = 0.0
    for _ in range(trials):
        rates = _draw_rates(rng, size)
        for word in words:
            initial = ParticleState(initial_positions, word)
            for t in times:
                gen = oracle.build_generator(initial, rates, default_window(initial, rates, t))
                probs, _ = oracle.matrix_exponential_row(gen, initial, t)
                value, _, _ = bethe.transition_arrays(initial, gen.positions, gen.words, t, rates)
                worst = max(worst, float(np.abs(value - probs).max()))
    return worst


def _suite_stochastic(size: int, seed: int, trials: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    t = 1.0
    for _ in range(trials):
        rates = _draw_rates(rng, size)
        word = tuple(rng.integers(1, size + 1, size=size))
        initial = ParticleState(tuple(range(size)), word)
        positions, words = window_states(initial, default_window(initial, rates, t)[1])
        value = bethe.transition_arrays(initial, positions, words, t, rates)[0]
        worst = max(worst, abs(1.0 - sum(value.tolist())))
    return worst


def _boundary_residual(xi: np.ndarray, b: np.ndarray, base: np.ndarray, sector) -> float:
    """Worst adjacency residual of a batch of trials in one sector, relative to the summed |terms|."""
    amps = build_all_A(xi, b, sector)
    mags = np.abs(amps)
    worst = 0.0
    for slot in range(1, len(base)):
        x = base.copy()
        x[slot] = x[slot - 1] + 1  # adjacent pair at the tested slot
        merged = x.copy()
        merged[slot] = merged[slot - 1]
        hop, stay, gain, partner = oracle.adjacent_rates(sector, b, slot)
        hop, stay, gain = hop[:, None], stay[:, None], gain[:, None]  # row scalings of (dim, dim, batch)

        def sides(sp, a):  # hop u(merged), and stay u(x) plus gain times the partner row of u(x)
            u = bethe.bethe_sum(x, sp, b, sector, a)
            return hop * bethe.bethe_sum(merged, sp, b, sector, a), stay * u + gain * u[partner]

        lhs, rhs = sides(xi, amps)
        # the same sums over |terms|: rounding in lhs - rhs grows with these, not with the result
        scale = sum(sides(np.abs(xi), mags))
        res = np.abs(lhs - rhs).max(axis=(0, 1)) / scale.max(axis=(0, 1))
        worst = max(worst, float(res.max()))
    return worst


def _suite_boundary(size: int, seed: int, trials: int) -> float:
    """Adjacency condition of the Bethe sum, trials grouped by sector and checked a group at once."""
    rng = np.random.default_rng(seed)
    xi, b = _draw_trials(rng, size, trials)
    multisets = np.sort(rng.integers(1, size + 1, size=(trials, size)), axis=1)
    base = rng.integers(-3, 4, size=(size, trials))
    worst = 0.0
    for multiset in np.unique(multisets, axis=0):
        sector = build_sector(multiset.tolist())
        group = np.flatnonzero((multisets == multiset).all(axis=1))
        # the amplitude matrices and their magnitudes, and one slot's sums and products
        for k in bethe._chunks(len(group), (2 * math.factorial(size) + 8) * sector.dim**2 * 16):
            g = group[k]
            worst = max(worst, _boundary_residual(xi[:, g], b[:, g], base[:, g], sector))
    return worst


# runner, default size, default trials, the smallest size with anything to check, the largest
# size it runs (dense sector matrices and windows grow like N!) and the max residual's tolerance
_SUITE_RUNNERS = {
    "yang-baxter": (_suite_welldef, 3, 100, 3, 6, 1e-12),  # the braid relation under its usual name
    "welldef": (_suite_welldef, 3, 100, 3, 6, 1e-12),  # a braid needs slots i, i+1 and i+2
    "oracle": (_suite_oracle, 2, 3, 2, 3, 1e-6),  # the start words are listed for 2 and 3
    "stochastic": (_suite_stochastic, 2, 5, 1, 4, 1e-6),  # sums a whole window: up to 2.4e7 states at N = 5
    "boundary": (_suite_boundary, 2, 50, 2, 5, 1e-10),  # an adjacent pair needs two particles
}
SUITES = tuple(_SUITE_RUNNERS)


def cmd_verify(
    suite: str,
    size: Optional[int] = None,
    seed: int = 0,
    trials: Optional[int] = None,
) -> int:
    """Run one named property suite and report max residual against its tolerance."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    runner, default_size, default_trials, min_size, max_size, tol = _SUITE_RUNNERS[suite]
    size = default_size if size is None else size
    trials = default_trials if trials is None else trials
    if not min_size <= size <= max_size:
        raise ConfigError(f"{suite} needs --size from {min_size} to {max_size}, got {size}")
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    residual = runner(size, seed, trials)
    passed = residual < tol
    status = "PASS" if passed else "FAIL"
    print(
        f"{suite}: size={size} trials={trials} max_residual={residual:.3e} "
        f"tolerance={tol:.1e} {status}"
    )
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def _load_config(path: str) -> JobConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mstasep",
        description="Transition probabilities for the multi-species TASEP "
        "with species-dependent rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_prob = sub.add_parser("prob", help="compute transition probabilities")
    p_verify = sub.add_parser("verify", help="run a property suite")
    p_sim = sub.add_parser("simulate", help="empirical distribution by simulation")
    for p in (p_prob, p_sim):  # each verb takes only the flags it reads
        p.add_argument("--config", default=None, help="JSON job configuration")
        p.add_argument("--out", default=None, help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    p_sim.add_argument("--samples", type=int, required=True)
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--size", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    for p in (p_sim, p_verify):
        p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, size=args.size, seed=args.seed, trials=args.trials)
        if args.out == "":
            raise ConfigError("--out must not be empty; use '-' for standard output")
        if args.config is None:
            raise ConfigError(f"{args.command} requires --config")
        cfg = _load_config(args.config)
        if args.command == "prob":
            return cmd_prob(cfg, out=args.out, fmt=args.format)
        return cmd_simulate(cfg, n_samples=args.samples, seed=args.seed, out=args.out, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

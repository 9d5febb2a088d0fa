"""Shared draw helpers for randomized tests, and small references only tests use."""

import csv
import importlib.util
import io
import itertools
import json
import math
from collections import deque
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from mstasep import ParticleState, RateTable, SpectralPoint, contour_bound
from mstasep.core import _increasing_rows, word_floors

# the benchmark's goodness-of-fit criterion for sampled counts, so tests and benchmark judge alike
_spec = importlib.util.spec_from_file_location(
    "benchmark_workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
chi_square_pvalue = _workloads.chi_square_pvalue


def draw_rates(rng, n, lo=0.5, hi=2.0):
    return RateTable(tuple(rng.uniform(lo, hi, size=n)))


def draw_point(rng, n, rates):
    """Spectral values strictly inside the admissible disk, generic phases."""
    mags = rng.uniform(0.2, 0.9, size=n) * contour_bound(rates)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return SpectralPoint(tuple(mags * np.exp(1j * phases)))


def validate_spectral_point(sp, rates):
    """Raise ValueError unless every spectral value lies inside the admissible disk."""
    bound = contour_bound(rates)
    for z in sp.xi:
        if not abs(z) < bound:
            raise ValueError(f"|xi|={abs(z):g} outside the admissible disk (radius {bound:g})")


def sector_size(multiset):
    """Multinomial coefficient: number of distinct words over the multiset."""
    n = math.factorial(len(multiset))
    for _, group in itertools.groupby(sorted(multiset)):
        n //= math.factorial(sum(1 for _ in group))
    return n


def inversions(word):
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def _moves(state, rates):
    """Enabled jumps from a state: (rate, successor) pairs, in particle order."""
    pos, spc = state.positions, state.species
    n = len(pos)
    out = []
    for i in range(n):
        b = rates.rate(spc[i])
        if i + 1 < n and pos[i + 1] == pos[i] + 1:
            if spc[i] > spc[i + 1]:  # overtaking swap, positions unchanged
                new_spc = spc[:i] + (spc[i + 1], spc[i]) + spc[i + 2 :]
                out.append((b, ParticleState(pos, new_spc)))
            continue  # blocked by an equal or stronger species
        new_pos = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
        out.append((b, ParticleState(new_pos, spc)))
    return out


def reference_generator(initial, rates, window):
    """Breadth-first window generator from the jump rules, one state at a time.

    Returns ``(states, rate_matrix, leak_rates)`` with states in discovery
    order; an independent reference for ``build_generator``.
    """
    hi = window[1]
    states = [initial]
    index = {initial: 0}
    rows, cols, vals = [], [], []
    leak = []
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        r = index[state]
        out_rate = 0.0
        leaked = 0.0
        for rate, nxt in _moves(state, rates):
            out_rate += rate
            if max(nxt.positions) > hi:
                leaked += rate
                continue
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            rows.append(r)
            cols.append(index[nxt])
            vals.append(rate)
        rows.append(r)
        cols.append(r)
        vals.append(-out_rate)
        leak.append(leaked)  # states are processed in discovery order, so r == len(leak)
    dim = len(states)
    q = sparse.csr_matrix((np.array(vals), (np.array(rows), np.array(cols))), shape=(dim, dim))
    return tuple(states), q, np.array(leak)


def reference_window_states(initial, hi):
    """Window states as one block of increasing rows per reachable word, lexsorted afterwards.

    Returns (T, N) int64 position and word arrays sorted by (positions, species);
    an independent reference for ``core.window_states``.
    """
    blocks = [(_increasing_rows(z, hi), w) for w, z in word_floors(initial).items()]
    positions = np.concatenate([x for x, _ in blocks])
    words = np.concatenate([np.tile(np.array(w, dtype=np.int64), (len(x), 1)) for x, w in blocks])
    order = np.lexsort(np.column_stack([positions, words]).T[::-1])
    return positions[order], words[order]


def reference_columns_text(positions, words, columns, fmt):
    """The text ``cli._write_columns`` writes, built one cell at a time with ``csv.writer``.

    Integer rows are joined by ``%`` formatting, floats take ``.17g`` per value,
    and JSON goes through ``json.dumps``; an independent reference for the bulk writer.
    """

    def joined(table, sep):
        fmt_row = sep.join(["%d"] * table.shape[1])
        return [fmt_row % row for row in map(tuple, table.tolist())]

    keys = ["positions", "species", *columns]
    cells = [joined(positions, ";"), joined(words, ",")]
    if fmt == "json":
        cells += [col.tolist() for col in columns.values()]
        return json.dumps([dict(zip(keys, row)) for row in zip(*cells)], indent=2) + "\n"
    cells += [
        [f"{v:.17g}" for v in col.tolist()] if col.dtype.kind == "f" else col.tolist()
        for col in columns.values()
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(keys)
    writer.writerows(zip(*cells))
    return buf.getvalue()


def canonical_config(cfg):
    """Canonical serialization of a ``cli.JobConfig``: sorted keys, two-space indent, trailing newline.

    Parsing the output with ``cli.parse_config`` and serializing again reproduces it byte for byte.
    """
    data = {
        "rates": list(cfg.rates.rates),
        "initial": {
            "positions": list(cfg.initial.positions),
            "species": list(cfg.initial.species),
        },
        "time": cfg.time,
        "targets": "window"
        if cfg.targets == "window"
        else [
            {"positions": list(tg.positions), "species": list(tg.species)} for tg in cfg.targets
        ],
        "spectral": asdict(cfg.spectral),
    }
    if cfg.output_format is not None or cfg.output_path is not None:
        out = {}
        if cfg.output_format is not None:
            out["format"] = cfg.output_format
        if cfg.output_path is not None:
            out["path"] = cfg.output_path
        data["output"] = out
    return json.dumps(data, sort_keys=True, indent=2) + "\n"

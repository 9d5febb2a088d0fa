"""Shared draw helpers for randomized tests, and small references only tests use."""

import csv
import functools
import importlib.util
import io
import itertools
import json
import math
from collections import deque
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from mstasep import ParticleState, RateTable, SpectralPoint, contour_bound
from mstasep.core import _increasing_rows, enumerate_sn, word_floors

# the benchmark's workloads, loaded from their file, and its goodness-of-fit criterion for sampled
# counts, so tests and benchmark judge alike
_spec = importlib.util.spec_from_file_location(
    "benchmark_workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
chi_square_pvalue = workloads.chi_square_pvalue


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


def moment_scale(start, rates):
    """The smallest power of two at or above the largest rate of a species the start holds.

    Found by halving and doubling in exact rationals, as a Fraction.
    """
    top, scale = Fraction(max(map(rates.rate, start.species))), Fraction(1)
    while scale < top:
        scale *= 2
    while scale / 2 >= top:
        scale /= 2
    return scale


def series_length(start, t, rates):
    """J, the series terms each moment of a spectral call sums: y_N - y_1 + 64 + ceil(8 scale t).

    scale is :func:`moment_scale`.
    """
    span = start.positions[-1] - start.positions[0]
    return span + 64 + math.ceil(8 * moment_scale(start, rates) * Fraction(t))


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
        "spectral": {"adapt_tol": cfg.spectral.adapt_tol},
    }
    if cfg.output_format is not None or cfg.output_path is not None:
        out = {}
        if cfg.output_format is not None:
            out["format"] = cfg.output_format
        if cfg.output_path is not None:
            out["path"] = cfg.output_path
        data["output"] = out
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def exact_moment(q, e, rates, t, scale):
    """scale**q M(q, e) in exact rationals, and a rigorous bound on the series tail it leaves out.

    M(q, e) = sum_j c_j t**(q+j+1) / (q+j+1)!, with sum_j c_j xi**j = prod_s (1 - b_s xi)**e_s
    and terms with q + j + 1 < 0 left out, is the residue at 0 of exp(t/xi) xi**q
    prod_s (1 - b_s xi)**e_s.  Rates, t and scale are read exactly from their floats, and the
    c_j times den**j, den the rates' common denominator, are integers: multiplying a series by
    1 - b xi, or dividing it by 1 - b xi, is one pass over them.  With b the largest b_s whose
    e_s < 0 and E the sum of those -e_s, |c_j| <= P (j+E-1 choose E-1) b**j, P = prod over
    e_s > 0 of (1 + b_s / b)**e_s, and these bounds times t**k / k! shrink by at most rho past
    the last term summed.  Terms are summed until rho <= 1/2 and the next bound is below 2**-200
    of the summed |terms| (or of 2**-1000); with no e_s < 0 the series ends.
    """
    t, scale, b = Fraction(t), Fraction(scale), [Fraction(x) for x in rates]
    den = max(x.denominator for x in b)  # a power of two
    negative = [(bs, -es) for bs, es in zip(b, e) if es < 0]
    top, order = max(negative, default=(Fraction(1), 0))[0], sum(k for _, k in negative)
    lead = math.prod((1 + bs / top) ** es for bs, es in zip(b, e) if es > 0)
    length = max(0, -q - 1) + 64
    while True:
        coef = [1] + [0] * (length - 1)
        for bs, es in zip(b, e):
            for _ in range(abs(es)):
                if es > 0:  # times 1 - b xi, from the top down
                    for j in range(length - 1, 0, -1):
                        coef[j] -= int(bs * den) * coef[j - 1]
                else:  # over 1 - b xi
                    for j in range(1, length):
                        coef[j] += int(bs * den) * coef[j - 1]
        j = max(0, -q - 1)
        k = q + j + 1
        if t == 0:  # only k = 0 counts
            return scale**q * (Fraction(coef[j], den**j) if k == 0 else Fraction(0)), Fraction(0)
        last = max(i for i, c in enumerate(coef) if c)
        # the terms over one running denominator den**j td**k k!, in integers: one gcd at the end
        tn, td = t.numerator, t.denominator
        power, denom, total, size = tn**k, den**j * td**k * math.factorial(k), 0, 0
        while j < length:
            total, size = total + coef[j] * power, size + abs(coef[j]) * power
            if not order and j >= last:  # no terms follow
                return scale**q * Fraction(total, denom), Fraction(0)
            rho = top * (j + 1 + order) / (j + 2) * t / (k + 2) if order else Fraction(1)
            if rho <= Fraction(1, 2):
                # the next term's bound, first compared in logarithms with a margin of 4 bits, then exactly
                tail = math.log2(lead) + math.log2(math.comb(j + order, order - 1)) + (j + 1) * math.log2(top)
                tail += (k + 1) * math.log2(t) - math.lgamma(k + 2) / math.log(2) + 200
                if tail <= max(size.bit_length() - denom.bit_length(), -1000) + 4:
                    bound = lead * math.comb(j + order, order - 1) * top ** (j + 1)
                    bound *= t ** (k + 1) / math.factorial(k + 1)
                    if bound * 2**200 <= max(Fraction(size, denom), Fraction(1, 2**1000)):
                        return scale**q * Fraction(total, denom), scale**q * bound / (1 - rho)
            j, k = j + 1, k + 1
            step = den * td * k
            power, denom, total, size = power * tn, denom * step, total * step, size * step
        length *= 2


def exact_terms(word, rows, rates):
    """The terms of the given rows of sum_sigma A_sigma e_word in exact rationals, by a walk of dicts.

    Walks :func:`core.enumerate_sn`, each column carrying the given rows and the rows its descendants
    read.  The factor at slot i, with letters (l, m) there and beta, alpha the values sigma's parent
    holds at slots i + 1 and i, negates a row with l > m, multiplies one with l <= m by
    S = -(1 - b_l xi_beta) / (1 - b_l xi_alpha), and adds to one with l < m
    T = b_l (xi_beta - xi_alpha) / (1 - b_l xi_alpha) times the row with l and m swapped.  Rates are
    read exactly from their floats.  Keys are (row, axis, a, e) as :func:`bethe._row_terms` lists
    them: the row among the sorted distinct words, the target axis each spectral axis d pairs with,
    the powers a[d] of xi_d and e[d][s] of (1 - b_(s+1) xi_d).  Values are (coefficient, sum of
    |contributions|): a key whose contributions cancel exactly keeps coefficient 0.
    """
    b = [Fraction(x) for x in rates.rates]
    words = sorted(set(itertools.permutations(word)))
    index, n = {w: k for k, w in enumerate(words)}, len(word)

    def shift(powers, d, by):
        return powers[:d] + (powers[d] + by,) + powers[d + 1 :]

    def shift_e(e, d, s, by):
        return e[:d] + (shift(e[d], s, by),) + e[d + 1 :]

    def swap(w, slot):
        return w[: slot - 1] + (w[slot], w[slot - 1]) + w[slot + 1 :]

    # the rows each permutation carries: the given rows, and every row its children's carried rows read
    perms = enumerate_sn(n)
    need = {elem.image: set(rows) for elem in perms}
    for elem in reversed(perms[1:]):
        for r in need[elem.image]:
            w = words[r]
            need[elem.pred.image] |= {r, index[swap(w, elem.slot)]} if w[elem.slot - 1] < w[elem.slot] else {r}
    start = ((0,) * n, ((0,) * len(b),) * n)
    columns = {perms[0].image: {index[tuple(word)]: {start: (Fraction(1), Fraction(1))}}}
    for elem in perms[1:]:
        parent, slot = columns[elem.pred.image], elem.slot
        beta, alpha = elem.pred.image[slot] - 1, elem.pred.image[slot - 1] - 1  # 0-based spectral axes
        column = columns[elem.image] = {}
        for r in need[elem.image]:
            w = words[r]
            l, m = w[slot - 1], w[slot]
            made = []
            for (a, e), (c, size) in parent.get(r, {}).items():
                if l > m:
                    made.append((a, e, -c, size))
                else:  # S
                    made.append((a, shift_e(shift_e(e, beta, l - 1, 1), alpha, l - 1, -1), -c, size))
            if l < m:  # T, from the row with l and m swapped
                bl = b[l - 1]
                for (a, e), (c, size) in parent.get(index[swap(w, slot)], {}).items():
                    e = shift_e(e, alpha, l - 1, -1)
                    made.append((shift(a, beta, 1), e, bl * c, bl * size))
                    made.append((shift(a, alpha, 1), e, -bl * c, bl * size))
            out = column[r] = {}
            for a, e, c, size in made:
                old_c, old_size = out.get((a, e), (0, 0))
                out[a, e] = (old_c + c, old_size + size)
    terms = {}
    for image, column in columns.items():
        axis = tuple(image.index(d + 1) for d in range(n))
        for r in rows:
            terms.update({(r, axis, a, e): v for (a, e), v in column.get(r, {}).items()})
    return terms


# a window's targets share their rows' terms and most of their moments
@functools.cache
def _row_terms_of(word, row, rates):
    return exact_terms(word, [row], RateTable(rates))


@functools.cache
def _moment_of(q, e, rates, t):
    return exact_moment(q, e, rates, t, 1.0)


def exact_probability(start, target, t, rates):
    """The transition probability from ``start`` to ``target`` at time t, and a bound on its error.

    Returns ``(value, bound)`` as Fractions, |value - P| <= bound.  The sum over the terms of the
    target's word row (:func:`exact_terms`) of c prod_d M(x_i - y_d - 1 + a_d, e_d), x_i the target
    position axis d pairs with (:func:`exact_moment` at scale 1), times prod_s b_s**d_s, d_s the
    summed displacement of species s, is exact up to the moments' series tails, which the bound
    carries.  The decay exp(-t sum_l b_l) over the start's species is ``Decimal.exp`` at 60 digits,
    correctly rounded from an argument rounded once, so the bound adds (|t sum b| + 1) 10**-58 of
    the value.  A target in another species sector is an exact 0.
    """
    word, y, x = tuple(start.species), start.positions, target.positions
    if sorted(target.species) != sorted(word):
        return Fraction(0), Fraction(0)
    row = sorted(set(itertools.permutations(word))).index(tuple(target.species))
    total, tail = Fraction(0), Fraction(0)
    for (_, axis, a, e), (c, _) in _row_terms_of(word, row, rates.rates).items():
        moments = [_moment_of(x[axis[d]] - y[d] - 1 + a[d], e[d], rates.rates, t) for d in range(len(y))]
        total += c * math.prod(m for m, _ in moments)
        wide = math.prod(abs(m) + bound for m, bound in moments) - math.prod(abs(m) for m, _ in moments)
        tail += abs(c) * wide
    b = [Fraction(v) for v in rates.rates]
    powers = math.prod(b[s - 1] ** xi for s, xi in zip(target.species, x))
    powers /= math.prod(b[s - 1] ** yi for s, yi in zip(word, y))
    rate = Fraction(t) * sum(b[s - 1] for s in word)
    with localcontext() as ctx:
        ctx.prec = 60
        decay = Fraction((-(Decimal(rate.numerator) / Decimal(rate.denominator))).exp())
    value = decay * powers * total
    return value, decay * abs(powers) * tail + abs(value) * (rate + 1) / 10**58

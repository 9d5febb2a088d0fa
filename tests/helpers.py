"""Shared draw helpers for randomized tests, and small references only tests use."""

import itertools
import math

import numpy as np

from mstasep import RateTable, SpectralPoint, contour_bound


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

"""Seedable samplers for the classical random-matrix ensembles.

Batched spectra of Wishart (Laguerre) and MANOVA/Jacobi matrices, one sampler per ensemble, which
also give the Laguerre small-dimension scaling limit.  Wishart spectra come from Gaussian panels.
MANOVA/Jacobi spectra come from Beta variates through the bidiagonal Jacobi matrix model: dense
``eigvalsh`` of its tridiagonal for the whole spectrum, or, for the top few eigenvalues only,
Sturm-count bisection guarded against 0/0 pivots.

Randomness is derived from an explicit :class:`Seed`.  A fixed
``(value, stream)`` pair reproduces output bit-for-bit on one build: the
generator is numpy's PCG64 seeded through ``SeedSequence(entropy=value,
spawn_key=(stream,))``, normal variates use ``standard_normal`` (ziggurat)
and Beta variates use ``beta``.  The spectra samplers fill their rows
block by block from that one generator (:func:`_fill_blocks`).  Replicated
loops draw replicate ``index`` from ``spawn_key=(stream, index)`` so they
stay deterministic under any schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, InvalidParams, ParameterRange

_U64 = 2**64


@dataclass(frozen=True)
class Seed:
    """Explicit RNG state: a 64-bit seed value plus a 64-bit stream index."""

    value: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.value) < _U64):
            raise ParameterRange(f"seed value must be a u64, got {self.value}")
        if not (0 <= int(self.stream) < _U64):
            raise ParameterRange(f"seed stream must be a u64, got {self.stream}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.value, spawn_key=(self.stream,))
        )

    def block_generator(self, index: int) -> np.random.Generator:
        """Generator for replicate block `index`, independent across indices."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.value, spawn_key=(self.stream, index))
        )


def _auto_block(K: int, width: int) -> int:
    """Draws per block keeping a block's largest array, K x width floats a draw, near 4e6 floats (32 MB)."""
    return max(1, min(4096, 4_000_000 // max(K * width, 1)))


def _fill_blocks(n: int, K: int, block_size: int, seed: Seed, blocks: Callable) -> np.ndarray:
    """(n, K) array of `n` draws from the generator ``blocks(rng, sizes)``, one row block per size.

    Sizes are `block_size` but the last; one generator from `seed` feeds every block in order, so
    the block size decides how the variates split between a block's arrays.  A generator,
    unlike a function per block, keeps one block's arrays alive while the next is drawn, so
    their memory is reused rather than released and faulted in again.
    """
    if K < 1:
        raise DimensionMismatch(f"need K >= 1, got K={K}")
    if n < 1:
        raise InvalidParams(f"nsamples must be >= 1, got {n}")
    sizes = [min(block_size, n - start) for start in range(0, n, block_size)]
    out = np.empty((n, K))
    done = 0
    for rows in blocks(seed.generator(), sizes):
        out[done : done + len(rows)] = rows
        done += len(rows)
    return out


def _tridiagonal_top(diag: np.ndarray, off: np.ndarray, top: int) -> np.ndarray:
    """(rows, top) largest eigenvalues, ascending, of symmetric tridiagonals with spectra in [0, 1].

    Row r has diagonal ``diag[r]`` and off-diagonal ``off[r]``; top == K solves rows densely, else
    every target is bisected bit by bit on the Sturm count: the negative pivots q_1 = a_1 - x,
    q_i = a_i - x - b_{i-1}^2 / q_{i-1} count the eigenvalues below x.  A zero pivot gives -inf and
    a right count (Demmel, Dhillon and Ren, ETNA 3, 1995); flooring b^2 at the least normal float
    keeps out 0/0 = nan, which would count as not negative.
    """
    K = diag.shape[1]
    if top == K:  # eigvalsh reads the lower triangle
        T, i = np.zeros((len(diag), K, K)), np.arange(K)
        T[:, i, i] = diag
        T[:, i[1:], i[:-1]] = off
        return np.linalg.eigvalsh(T)
    a, b2 = (np.ascontiguousarray(v.T)[:, :, None] for v in (diag, np.maximum(off**2, np.finfo(float).tiny)))
    lo, x, q, t = np.zeros((4, len(diag), top))
    with np.errstate(divide="ignore"):
        for h in range(1, 54):  # x = lo + 2^-h halves the bracket [lo, lo + 2^(1-h)] of [0, 1]
            np.add(lo, 0.5**h, out=x)
            count = (np.subtract(a[0], x, out=q) < 0.0).astype(np.intp)
            for i in range(1, K):
                np.divide(b2[i - 1], q, out=t)
                count += np.subtract(np.subtract(a[i], x, out=q), t, out=q) < 0.0
            np.copyto(lo, x, where=count <= np.arange(K - top, K))  # the target is not below x
    return lo + 0.5**54


def manova_spectra(K: int, L: float, Q: float, n: int, seed: Seed, top: int | None = None) -> np.ndarray:
    """Eigenvalues (ascending per row) of `n` independent MANOVA draws.

    A draw has the law of the spectrum, in (0, 1), of (ZZ^T + YY^T)^{-1/2} ZZ^T (...)^{-1/2} for
    standard normal Z (K x L) and Y (K x Q), K <= L and K <= Q: the beta = 1 Jacobi ensemble with
    exponents a = L - K and b = Q - K.  It is sampled from 2K - 1 Beta variates as the squared
    singular values of an upper bidiagonal K x K matrix B (Edelman and Sutton, Found. Comput. Math.
    8, 2008; Killip and Nenciu, IMRN 2004), so the widths L and Q may be any reals >= K.
    With `top` None or K, a dense ``eigvalsh`` solves each block's tridiagonal B B^T, O(K^3) a
    draw.  With 1 <= top < K, Sturm bisection (:func:`_tridiagonal_top`) of batches of blocks
    returns the (n, top) largest eigenvalues, O(K top) a draw.  The variates are the same either way.
    """
    if K > L or K > Q:
        raise DimensionMismatch(f"MANOVA needs K <= L and K <= Q, got K={K}, L={L}, Q={Q}")
    top = K if top is None else top
    if not 1 <= top <= K:
        raise InvalidParams(f"top must be in 1..{K}, got {top}")
    a, b = L - K, Q - K
    k = np.arange(1, K + 1)
    group = 1 if top == K else max(1, _auto_block(1, K) // _auto_block(K, K))  # blocks per bisection batch

    def draw(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        # c_k^2 ~ Beta((a+k)/2, (b+k)/2), c'_k^2 ~ Beta(k/2, (a+b+1+k)/2); both reversed
        # so column i holds c_{K-i}, s_{K-i} and c'_{K-1-i}, s'_{K-1-i}.
        c2 = rng.beta((a + k) / 2.0, (b + k) / 2.0, size=(size, K))[:, ::-1]
        cp2 = rng.beta(k[:-1] / 2.0, (a + b + 1.0 + k[:-1]) / 2.0, size=(size, K - 1))[:, ::-1]
        # upper bidiagonal B: diagonal (c_K, c_{K-1} s'_{K-1}, ..., c_1 s'_1),
        # superdiagonal (-s_K c'_{K-1}, ..., -s_2 c'_1)
        d = np.sqrt(c2)
        d[:, 1:] *= np.sqrt(1.0 - cp2)
        e = -np.sqrt((1.0 - c2[:, :-1]) * cp2)
        # B B^T is tridiagonal: diagonal d_i^2 + e_i^2 (e_K = 0), off-diagonal d_{i+1} e_i
        return d**2 + np.pad(e**2, ((0, 0), (0, 1))), d[:, 1:] * e

    def blocks(rng: np.random.Generator, sizes: list[int]):
        for start in range(0, len(sizes), group):
            tridiagonals = zip(*(draw(rng, size) for size in sizes[start : start + group]))
            yield _tridiagonal_top(*map(np.concatenate, tridiagonals), top)

    return _fill_blocks(n, top, _auto_block(K, K), seed, blocks)


def laguerre_spectra(K: int, M: int, n: int, seed: Seed) -> np.ndarray:
    """Eigenvalues (ascending per row) of `n` independent K x M Wishart draws.

    With K and M fixed, the descending row is the limit law of S times the
    squared sample canonical correlations as S grows.
    """
    if M < K:
        raise DimensionMismatch(f"Wishart needs M >= K, got K={K}, M={M}")

    def blocks(rng: np.random.Generator, sizes: list[int]):
        for b in sizes:
            Z = rng.standard_normal((b, K, M))
            yield np.linalg.eigvalsh(Z @ np.swapaxes(Z, -1, -2))

    return _fill_blocks(n, K, _auto_block(K, M), seed, blocks)

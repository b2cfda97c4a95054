"""Input generation for the benchmark, from numpy alone.

Every generator takes a ``numpy.random.Generator`` so a workload seed fixes
its inputs.  None of them calls ``resgeo``: the program under test only
receives the matrices and files produced here.
"""

from __future__ import annotations

import numpy as np


def describe(n, edges, **extra):
    """Size record of one input: node count, edge count and density."""
    record = {"n": int(n), "edges": int(edges),
              "density": float(edges) / float(n * (n - 1))}
    record.update(extra)
    return record


def scwb_adjacency(n, rng, density):
    """Strongly connected, weight-balanced digraph as a sum of directed cycles.

    A Hamiltonian cycle gives strong connectivity; further random cycles of
    random length are added until at least ``density * n * (n - 1)``
    ordered pairs carry an edge.  Each cycle is balanced on its own, so the
    sum is balanced.
    """
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    adjacency[order, np.roll(order, -1)] += rng.uniform(0.5, 2.0)
    target = int(density * n * (n - 1))
    while np.count_nonzero(adjacency) < target:
        order = rng.permutation(n)[: int(rng.integers(3, n + 1))]
        adjacency[order, np.roll(order, -1)] += rng.uniform(0.5, 2.0)
    return adjacency


def unbalanced_laplacian(n, rng, extra_edges):
    """Laplacian of a sparse strongly connected digraph, generally unbalanced.

    A Hamiltonian cycle plus ``extra_edges`` random edges (self-loops
    dropped, duplicates merged), weights uniform on ``[0.5, 2]``.
    """
    adjacency = np.zeros((n, n))
    order = rng.permutation(n)
    adjacency[order, np.roll(order, -1)] = rng.uniform(0.5, 2.0, size=n)
    src = rng.integers(0, n, size=extra_edges)
    dst = rng.integers(0, n, size=extra_edges)
    weights = rng.uniform(0.5, 2.0, size=extra_edges)
    loop = src == dst
    np.add.at(adjacency, (src[~loop], dst[~loop]), weights[~loop])
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return lap, int(np.count_nonzero(adjacency))


def signed_gram_laplacian(n, rng):
    """Signed Laplacian ``Q = (J H^T H J)^+`` for a square Gaussian ``H``.

    This is the centered-Gram construction of
    ``resgeo.generators.random_class_q``, one draw.  The pseudoinverse
    comes from ``eigh`` and is then centered and symmetrized, so ``Q`` has
    exactly symmetric entries and row sums at rounding level.

    Returns ``(q, gram, info)``; ``gram`` is ``Q^+`` as constructed, from
    which reference resistances follow.  ``info`` records the condition
    number of ``Q`` on the complement of the ones vector.
    """
    h = rng.standard_normal((n, n))
    centered = h - h.mean(axis=1, keepdims=True)
    gram = centered.T @ centered
    gram = (gram + gram.T) / 2.0
    w, v = np.linalg.eigh(gram)
    q = (v[:, 1:] / w[1:]) @ v[:, 1:].T
    q = q - q.mean(axis=0)[None, :] - q.mean(axis=1)[:, None] + q.mean()
    q = (q + q.T) / 2.0
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    info = describe(n, n * (n - 1), signed_edges=int(np.count_nonzero(off > 0.0)),
                    log10_cond=float(np.log10(w[-1] / w[1])))
    return q, gram, info


#: Draws :func:`band_streams` tries before it gives up.
MAX_DRAWS = 1000


def band_streams(n, seed, band, count, first=0):
    """The first ``count`` streams ``s >= first`` whose signed draw lies in a band.

    The draw of stream ``s`` is ``signed_gram_laplacian(n,
    numpy.random.default_rng([seed, s]))``; it is in the band when the
    log10 condition number of ``Q`` lies in the closed interval ``band``.
    """
    lo, hi = band
    streams = []
    for stream in range(first, first + MAX_DRAWS):
        cond = signed_gram_laplacian(n, np.random.default_rng([seed, stream]))[2]["log10_cond"]
        if lo <= cond <= hi:
            streams.append(stream)
            if len(streams) == count:
                return streams
    raise RuntimeError(f"fewer than {count} of {MAX_DRAWS} draws have log10 condition "
                       f"in [{lo}, {hi}]")


def resistance_from_kernel(kernel):
    """``zeta 1^T + 1 zeta^T - 2 K`` for a symmetric kernel ``K``."""
    zeta = np.diag(kernel)
    omega = zeta[None, :] + zeta[:, None] - 2.0 * kernel
    np.fill_diagonal(omega, 0.0)
    return omega


def scwb_resistance(adjacency):
    """Reference resistance matrix of a balanced digraph, by dense pinv."""
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    pinv = np.linalg.pinv(lap)
    return resistance_from_kernel((pinv + pinv.T) / 2.0)


def write_edge_list(path, adjacency):
    """Edge list in the CLI format: ``n`` header, 1-based ``src dst weight``."""
    src, dst = np.nonzero(adjacency)
    lines = [f"n {adjacency.shape[0]}\n"]
    lines.extend(f"{s + 1} {d + 1} {float(adjacency[s, d])!r}\n"
                 for s, d in zip(src.tolist(), dst.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(src)


def write_matrix_csv(path, matrix):
    """One comma-separated row per line, reals written exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in matrix.tolist())

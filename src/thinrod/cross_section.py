"""Cross-section eigenproblem on a masked uniform grid.

5-point Dirichlet Laplacian with zero extension outside the mask.
All five stencils (S, the central differences D2/D3 and the neighbour
averages M2/M3) come from one builder, `_pair_matrix`, that puts a weight
on each neighbour pair along an axis, one on its reverse and, for S, one
on the diagonal; R = xi3 D2 - xi2 D3 is formed from D2 and D3.
Discrete inner product: <u,v> = h^2 sum(u v) over interior nodes.
Eigenvectors are normalized in that inner product and sign-fixed so the
largest-magnitude entry is positive.

Built-in sections (square, disk) are centered on their centroid, with an
optional `center` offset that translates the coordinates (so the
centroid sits at `center`). Mask files are centered on their bounding
rectangle, which lets a mask be deliberately off-center.

Accuracy caveat: the mask is a staircase set of grid nodes, so for a
smooth curved section the computational domain is the staircase polygon,
not the section itself. Eigenvalues then converge at O(h) and boundary
quantities keep an O(h) collar layer; in particular the rotational
coefficient of a disk, exactly zero in the limit, measures at about
0.5-0.8 h (8.5e-3 at n = 64, 5.5e-3 at n = 128). Grid-aligned sections
(rectangles, mask unions of cells) do not suffer from this and converge
at O(h^2).

section_basis is the one eigenbasis of S: closed-form sines on a full
rectangular mask (S is then a Kronecker sum of 1D Dirichlet second
differences), on any other numpy's dense eigh per parity block of the
mask's mirror symmetries (S depends on the mask alone, so it commutes with
every reflection that maps the mask onto itself), the blocks limited to as
many entries as one of _SPECTRAL_CUTOFF interior nodes.  The direct solver's
preconditioner, start block and rungs read it, and so does the sine
resolvent of the expansion's section solves.

deflated_solve is the one deflated solve, shared by the section resolvent
here and the reduced resolvent of curve_operator: a solvability check and
a residual check around an inner solver kept per mode, which is the
closed-form sine resolvent for section solves on a full rectangular mask
and a bordered sparse LU everywhere else.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from numpy.linalg import eigh
from scipy.sparse.linalg import eigsh, splu

from .errors import ConfigError, MultipleEigenvalue, SolvabilityViolation, SolverFail

_ORTHO_TOL = 1e-8
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SectionGrid:
    """Masked uniform grid over a bounding rectangle.

    mask[i, j] True marks an interior node; idx maps to flat indices.
    xi2 runs along axis 0, xi3 along axis 1.
    """

    kind: str
    h: float
    mask: np.ndarray
    idx: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray

    @property
    def n_interior(self) -> int:
        return self.xi2.size


def _finish_grid(kind, h, mask, x2, x3) -> SectionGrid:
    n = int(mask.sum())
    if n < 25:
        raise ConfigError("section", "mask must contain at least 25 interior nodes")
    idx = -np.ones(mask.shape, dtype=np.int64)
    idx[mask] = np.arange(n)
    ncomp = _component_count(idx, n)
    if ncomp != 1:
        raise ConfigError("section", f"mask must be connected ({ncomp} components)")
    X2, X3 = np.meshgrid(x2, x3, indexing="ij")
    g = SectionGrid(kind, float(h), mask, idx, X2[mask], X3[mask])
    for a in (g.mask, g.idx, g.xi2, g.xi3):
        a.setflags(write=False)
    return g


def square_grid(side: float, n: int, center=(0.0, 0.0)) -> SectionGrid:
    """n x n interior nodes, h = side/(n+1), centroid at `center`."""
    if side <= 0 or n < 5:
        raise ConfigError("section", "square needs side > 0 and n >= 5")
    h = side / (n + 1)
    x = -side / 2 + h * (1 + np.arange(n))
    return _finish_grid(
        "square", h, np.ones((n, n), dtype=bool), x + center[0], x + center[1]
    )


def disk_grid(radius: float, n: int, center=(0.0, 0.0)) -> SectionGrid:
    """Staircase disk on an n x n bounding-box grid, h = 2*radius/(n+1)."""
    if radius <= 0 or n < 7:
        raise ConfigError("section", "disk needs radius > 0 and n >= 7")
    h = 2 * radius / (n + 1)
    x = -radius + h * (1 + np.arange(n))
    # node i lies at radius k_i / (n + 1): the inside test on the integers
    # k_i is exact, so nodes on the circle are out and the mask keeps the
    # disk's mirror symmetries, which a floating-point test breaks by
    # rounding some on-circle nodes in and their mirrors out (4 of 8 at
    # n = 101)
    k = 2 * np.arange(n) - (n - 1)
    mask = k[:, None] ** 2 + k[None, :] ** 2 < (n + 1) ** 2
    return _finish_grid("disk", h, mask, x + center[0], x + center[1])


def mask_grid(path) -> SectionGrid:
    """Load a text mask: first line "ny nz h", then ny rows of nz 0/1 tokens
    separated by any whitespace, or written as one token of nz characters;
    a file that cannot be read or parsed is a ConfigError on `section.path`."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError("section.path", f"cannot read mask file: {e}") from e
    try:
        ny_s, nz_s, h_s = lines[0].split()
        ny, nz, h = int(ny_s), int(nz_s), float(h_s)
    except (ValueError, IndexError):
        raise ConfigError("section.path", "header must be 'ny nz h'")
    if not (np.isfinite(h) and h > 0) or ny < 1 or nz < 1 or len(lines) != ny + 1:
        raise ConfigError("section.path", "bad header or row count")
    rows = []
    for k, line in enumerate(lines[1:]):
        toks = line.split()
        toks = list(toks[0]) if len(toks) == 1 else toks  # a compact row
        if len(toks) != nz or any(t not in ("0", "1") for t in toks):
            raise ConfigError("section.path", f"row {k}: expected {nz} 0/1 tokens")
        rows.append([t == "1" for t in toks])
    mask = np.array(rows, dtype=bool)
    x2 = h * (np.arange(ny) - (ny - 1) / 2)
    x3 = h * (np.arange(nz) - (nz - 1) / 2)
    return _finish_grid("mask", h, mask, x2, x3)


def _neighbor_pairs(idx, axis):
    if axis == 0:
        a, b = idx[:-1, :], idx[1:, :]
    else:
        a, b = idx[:, :-1], idx[:, 1:]
    m = (a >= 0) & (b >= 0)
    return a[m], b[m]


def _component_count(idx, n) -> int:
    """Connected components of the n nodes under the stencil's edges.

    The edges are the 5-point stencil's neighbour pairs, so two nodes that
    touch only at a corner are not connected.  Each round hooks every root
    onto the smallest root across an edge and compresses every path to its
    root, until no edge joins two trees.
    """
    pairs = [_neighbor_pairs(idx, axis) for axis in (0, 1)]
    a = np.concatenate([p[0] for p in pairs])
    b = np.concatenate([p[1] for p in pairs])
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        cut = ra != rb
        if not cut.any():
            return int(np.count_nonzero(root == np.arange(n)))
        ra, rb = ra[cut], rb[cut]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):
            root = up


def _pair_matrix(grid: SectionGrid, axis, w_ab, w_ba, diag=None) -> sp.csr_matrix:
    """w_ab at (a, b) and w_ba at (b, a) for every neighbour pair a, b along
    `axis` (one axis or a tuple of them), and `diag` on the diagonal when
    given; zero extension outside the mask."""
    n = grid.n_interior
    rows, cols, vals = [], [], []
    if diag is not None:
        rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, diag)]
    for ax in axis if isinstance(axis, tuple) else (axis,):
        a, b = _neighbor_pairs(grid.idx, ax)
        rows += [a, b]
        cols += [b, a]
        vals += [np.full(a.size, w_ab), np.full(a.size, w_ba)]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def laplacian(grid: SectionGrid) -> sp.csr_matrix:
    """S = -Delta_h, SPD, exactly symmetric."""
    h2 = grid.h**2
    return _pair_matrix(grid, (0, 1), -1.0 / h2, -1.0 / h2, diag=4.0 / h2)


@dataclass
class SectionOperators:
    """Sparse stencil family on one grid, built once and shared."""

    S: sp.csr_matrix
    D2: sp.csr_matrix
    D3: sp.csr_matrix
    M2: sp.csr_matrix
    M3: sp.csr_matrix
    R: sp.csr_matrix  # xi3*D2 - xi2*D3, exactly skew-symmetric


def build_operators(grid: SectionGrid) -> SectionOperators:
    w = 1.0 / (2 * grid.h)  # central differences D, exactly skew-symmetric
    D2, D3 = (_pair_matrix(grid, ax, w, -w) for ax in (0, 1))
    R = sp.diags(grid.xi3) @ D2 - sp.diags(grid.xi2) @ D3
    return SectionOperators(
        laplacian(grid), D2, D3, _pair_matrix(grid, 0, 0.5, 0.5),
        _pair_matrix(grid, 1, 0.5, 0.5), R.tocsr(),
    )


@dataclass
class SectionSpectrum:
    """Lowest eigenpairs plus the derived per-mode coefficients.

    Arrays are indexed 0-based; mode numbers n in the API are 1-based.
    C[k] = |R phi|^2 by the closure quadrature (interior nodes plus the
    zero-extension ring, trapezoid weights), which keeps the boundary
    strip of |R phi|^2 and converges at O(h^2) on grid-aligned sections.
    C_int[k] is the plain interior sum; it pairs with the skew stencil R
    and is what the expansion recurrence needs for its solvability
    identities to hold exactly on the grid. m2/m3 are the linear moments
    of phi^2, a2/a3 the neighbor-average moments <M phi, phi> (discrete
    factors, -> 1 + O(h^2), used by the reduced-operator assembly for
    the same reason as C_int).
    """

    grid: SectionGrid
    ops: SectionOperators
    lam: np.ndarray
    phi: np.ndarray  # (count, n_interior)
    C: np.ndarray
    C_int: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    _factors: dict = field(default_factory=dict, repr=False)

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def count(self) -> int:
        return self.lam.size

    def mode(self, n: int):
        """1-based accessor: (lambda_n, phi_n)."""
        if not 1 <= n <= self.count:
            raise IndexError(f"mode {n} not stored (count={self.count})")
        return float(self.lam[n - 1]), self.phi[n - 1]


def solve_section(grid: SectionGrid, count: int) -> SectionSpectrum:
    """Lowest `count` Dirichlet eigenpairs, ascending, h^2-orthonormal."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ops = build_operators(grid)
    n = grid.n_interior
    if count >= n - 1:
        raise SolverFail(f"count {count} too large for {n} interior nodes")
    v0 = np.ones(n) / np.sqrt(n)
    try:
        lam, vecs = eigsh(ops.S, k=count, sigma=0.0, which="LM", v0=v0, tol=0)
    except Exception as e:  # ArpackError / ArpackNoConvergence
        raise SolverFail(f"section eigensolve failed: {e}") from e
    order = np.argsort(lam)
    lam = lam[order]
    phi = vecs[:, order].T.copy()
    for k in range(count):
        phi[k] /= grid.h * np.sqrt(np.sum(phi[k] ** 2))
        if phi[k][np.argmax(np.abs(phi[k]))] < 0:
            phi[k] = -phi[k]
    if np.any(lam <= 0):
        raise SolverFail("nonpositive section eigenvalue")

    h2 = grid.h**2
    C = np.array([_closure_rotational(grid, p) for p in phi])
    C_int = np.array([h2 * np.sum((ops.R @ p) ** 2) for p in phi])
    m2 = np.array([h2 * np.sum(grid.xi2 * p**2) for p in phi])
    m3 = np.array([h2 * np.sum(grid.xi3 * p**2) for p in phi])
    a2 = np.array([h2 * np.sum(p * (ops.M2 @ p)) for p in phi])
    a3 = np.array([h2 * np.sum(p * (ops.M3 @ p)) for p in phi])
    return SectionSpectrum(grid, ops, lam, phi, C, C_int, m2, m3, a2, a3)


def assert_simple(spectrum: SectionSpectrum, n: int, gap_tol: float = 1e-6) -> None:
    """Refuse modes that are not numerically simple (relative gap test)."""
    lam, _ = spectrum.mode(n)
    if n + 1 > spectrum.count:
        raise IndexError(f"need mode {n + 1} stored to assess the gap above mode {n}")
    gap = spectrum.lam[n] - lam
    if n >= 2:
        gap = min(gap, lam - spectrum.lam[n - 2])
    if gap <= gap_tol * lam:
        raise MultipleEigenvalue(
            f"section mode {n}: relative gap {gap / lam:.3e} <= {gap_tol:g}"
        )


def _closure_rotational(grid: SectionGrid, phi: np.ndarray) -> float:
    """h^2 sum of w |R phi|^2 over interior nodes plus the zero-extension ring.

    On the ring the derivative is one-sided into the domain (second order
    where two closure values exist). Trapezoid weights halve nodes that
    end a grid line along an axis, so the half-cell boundary strip of
    |R phi|^2 is integrated consistently instead of dropped. On staircase
    masks of smooth curved sections the ring does not lie on the true
    boundary, which leaves an O(h) layer; see the module docstring.
    """
    ny, nz = grid.mask.shape
    h = grid.h
    P = np.zeros((ny + 4, nz + 4))
    P[2:-2, 2:-2][grid.mask] = phi
    inside = np.zeros((ny + 4, nz + 4), dtype=bool)
    inside[2:-2, 2:-2] = grid.mask
    ring = np.zeros_like(inside)
    for ax, k in ((0, 1), (0, -1), (1, 1), (1, -1)):
        ring |= np.roll(inside, k, axis=ax)
    clo = ring | inside
    ring &= ~inside

    i0, j0 = map(int, np.argwhere(grid.mask)[0])
    p0 = int(grid.idx[i0, j0])
    x2 = grid.xi2[p0] + h * (np.arange(ny + 4) - (i0 + 2))
    x3 = grid.xi3[p0] + h * (np.arange(nz + 4) - (j0 + 2))
    X2, X3 = np.meshgrid(x2, x3, indexing="ij")

    def deriv(axis):
        s = lambda k: np.roll(clo, -k, axis=axis)
        v = lambda k: np.roll(P, -k, axis=axis)
        up, up2, dn, dn2 = s(1), s(2), s(-1), s(-2)
        d = np.zeros_like(P)
        c = up & dn
        d[c] = (v(1)[c] - v(-1)[c]) / (2 * h)
        f = ~c & up & up2
        d[f] = (-3 * P[f] + 4 * v(1)[f] - v(2)[f]) / (2 * h)
        b = ~c & ~f & dn & dn2
        d[b] = (3 * P[b] - 4 * v(-1)[b] + v(-2)[b]) / (2 * h)
        f1 = ~c & ~f & ~b & up
        d[f1] = (v(1)[f1] - P[f1]) / h
        b1 = ~c & ~f & ~b & ~f1 & dn
        d[b1] = (P[b1] - v(-1)[b1]) / h
        return d, np.where(up & dn, 1.0, 0.5)

    d2, w2 = deriv(0)
    d3, w3 = deriv(1)
    rp = X3 * d2 - X2 * d3
    return float(h * h * np.sum((w2 * w3 * rp * rp)[clo]))


def _dirichlet_eigenvalues(h: float, length: float, count: int) -> np.ndarray:
    """The lowest `count` eigenvalues (4/h^2) sin^2(m pi h / (2 length)),
    m = 1, 2, ..., of the Dirichlet second-difference matrix -d^2 with
    spacing h on an interval of that length (length / h - 1 interior
    nodes).  Along the rod's axis (h, s0) they are theta_m."""
    m = np.arange(1, count + 1)
    return (4 / h**2) * np.sin(m * np.pi * h / (2 * length)) ** 2


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal type-I discrete sine transform matrix of order n.

    Column m samples the m-th eigenvector of the n-node Dirichlet second
    difference (eigenvalue order of :func:`_dirichlet_eigenvalues`); the
    matrix is symmetric and its own inverse.
    """
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


# A non-rectangular section gets a dense eigenbasis, one block per mirror
# parity, whose blocks may hold as many entries as one of this many nodes:
# sum(block^2) <= _SPECTRAL_CUTOFF^2 (each block's eigh costs O(block^3)
# time and O(block^2) memory); a full rectangular mask needs none.
_SPECTRAL_CUTOFF = 4096


def _parity_basis(grid: SectionGrid):
    """(Q, sizes): the orthogonal basis of the mask's mirror parities and
    the size of each parity block.

    A reflection of a mask axis that maps the mask onto itself permutes
    the interior nodes and commutes with S, which depends on the mask
    alone, so S is block diagonal in a basis of vectors even or odd under
    each such reflection (Bossavit, Comput. Methods Appl. Mech. Engrg. 56,
    1986).  With G the group the symmetric reflections generate (1, 2 or
    4 elements), column (p, x) of Q is the sum of chi_p(g) e_{g x} over g
    in G, normalized, for each parity p (a character of G: odd under the
    reflections of the set bits of p) and each orbit representative x
    (its smallest node).  The column vanishes, and is left out, when chi_p
    is odd under a reflection that fixes x, which only a node on a mirror
    axis has.  Entries are +-1/2 (orbits of four nodes), +-1/sqrt(2) (of
    two) or 1 (a node fixed by G).  Columns run block by block, in the
    order of p, so parity 0, even under every reflection, comes first,
    and by representative within a block; a mask with no mirror symmetry
    has one block and Q = I.
    """
    n = grid.n_interior
    maps = [np.arange(n)]  # node map j applies the mirrors of the bits of j
    for ax in (0, 1):
        if np.array_equal(np.flip(grid.mask, ax), grid.mask):
            mirror = np.flip(grid.idx, ax)[grid.mask]
            maps += [mirror[g] for g in maps]
    rep = np.flatnonzero(np.minimum.reduce(maps) == np.arange(n))
    blocks = []
    for parity in range(len(maps)):  # odd under the mirrors of its bits
        chi = [(-1.0) ** bin(j & parity).count("1") for j in range(len(maps))]
        col = sp.csc_matrix(
            (np.repeat(chi, rep.size),
             (np.concatenate([g[rep] for g in maps]),
              np.tile(np.arange(rep.size), len(maps)))),
            shape=(n, rep.size),
        )  # duplicates summed: +-|stabilizer| on the orbit, or all 0
        col.eliminate_zeros()
        col = col[:, np.flatnonzero(np.diff(col.indptr))]
        orbit = np.diff(col.indptr)
        col.data = np.sign(col.data) * np.sqrt(1.0 / np.repeat(orbit, orbit))
        blocks.append(col)
    return sp.hstack(blocks, format="csr"), [b.shape[1] for b in blocks]


def _check_section_size(grid: SectionGrid, sizes=None):
    """Raise SolverFail if a non-rectangular mask's dense section
    eigenbasis would hold more entries than one of _SPECTRAL_CUTOFF nodes:
    the squares of its parity block sizes (from :func:`_parity_basis`
    unless given) sum above _SPECTRAL_CUTOFF^2.  A mask with no mirror
    symmetry is one block, so it is refused above _SPECTRAL_CUTOFF
    interior nodes."""
    if grid.mask.all():
        return
    nw = grid.n_interior
    sizes = _parity_basis(grid)[1] if sizes is None else sizes
    entries = sum(b * b for b in sizes)
    if entries > _SPECTRAL_CUTOFF**2:
        blocks = "" if len(sizes) == 1 else (
            f" in mirror-parity blocks of {', '.join(map(str, sizes))}, whose "
            "dense eigenbases hold as many entries as one of "
            f"{math.isqrt(entries - 1) + 1} nodes"
        )
        raise SolverFail(
            f"section has {nw} interior nodes{blocks}, above the limit of "
            f"{_SPECTRAL_CUTOFF} for the dense section eigenbasis the direct "
            "solve needs on a non-rectangular section; lower section.n"
        )


def _cast_once(A: np.ndarray):
    """dtype -> A in that dtype: A itself in its own dtype, a copy in any
    other, made on the first request of that dtype and kept."""
    return functools.cache(lambda dtype: A.astype(dtype, copy=False))


class _SineProducts:
    """The map sine2 (x) sine3 of an n2 x n3 full rectangular mask,
    symmetric and its own inverse, on a column stack (n2 n3, cols) when
    called and on a row stack (rows, n2 n3) by :meth:`rows`, in the dtype
    of the stack.  Neither entry copies a C-ordered stack: the row stack
    of the section resolvent goes in as it is, not transposed."""

    def __init__(self, n2: int, n3: int):
        self.n2, self.n3 = n2, n3
        self.sine2 = _cast_once(_sine_matrix(n2))
        self.sine3 = _cast_once(_sine_matrix(n3))

    def __call__(self, U):
        n2, n3, cols = self.n2, self.n3, U.shape[1]
        U = (self.sine2(U.dtype) @ U.reshape(n2, n3 * cols)).reshape(n2, n3, cols)
        return (self.sine3(U.dtype) @ U).reshape(n2 * n3, cols)

    def rows(self, V):
        # row k, viewed as an n2 x n3 array X, becomes sine2 X sine3
        n2, n3, r = self.n2, self.n3, V.shape[0]
        V = self.sine2(V.dtype) @ V.reshape(r, n2, n3)
        return (V.reshape(r * n2, n3) @ self.sine3(V.dtype)).reshape(r, n2 * n3)


class _ParityProducts:
    """The eigenbasis Q blockdiag(Phi_b) of a non-rectangular mask and its
    transpose on a column stack (n_interior, cols), in the dtype of the
    stack: the sparse parity basis Q of :func:`_parity_basis` and one dense
    product per parity block, each written into its rows of the result."""

    def __init__(self, Q, rows, Phi):
        self.Q, self.QT = _cast_once(Q), _cast_once(Q.T.tocsr())
        self.rows, self.Phi = rows, [_cast_once(V) for V in Phi]

    def to_modes(self, U):
        V = self.QT(U.dtype) @ U
        out = np.empty_like(V)
        for rows, Phi in zip(self.rows, self.Phi):
            # a transposed view multiplies without a copy
            np.matmul(Phi(U.dtype).T, V[rows], out=out[rows])
        return out

    def from_modes(self, U):
        V = np.empty_like(U)
        for rows, Phi in zip(self.rows, self.Phi):
            np.matmul(Phi(U.dtype), U[rows], out=V[rows])
        return self.Q(U.dtype) @ V


def section_basis(grid: SectionGrid):
    """(lam_sec, to_modes, from_modes) of S: its eigenvalues and the
    products of a column stack (n_interior, cols) with the transposed
    eigenbasis and with the eigenbasis.

    On a full rectangular mask S is a Kronecker sum of 1D Dirichlet second
    differences, so its eigenbasis is the sine matrix along xi2 (mask axis
    0) times the one along xi3 (axis 1): basis vector (i, j), flat index
    i * n3 + j, has the closed-form eigenvalue lam_sec[i * n3 + j]
    (unsorted), and both products are one map, sine2 (x) sine3, symmetric
    and its own inverse (fast diagonalization: Lynch, Rice & Thomas,
    Numer. Math. 6, 1964), a :class:`_SineProducts` that also takes row
    stacks.  Any other mask gets a dense eigenbasis split by the mask's
    mirror symmetries: Q blockdiag(Phi_b), with Q the sparse orthogonal
    parity basis of :func:`_parity_basis` and Phi_b the eigenvectors of
    the parity block Q_b^T S Q_b, one per block, from numpy's eigh
    (LAPACK's divide-and-conquer syevd, the package's one dense symmetric
    eigensolver, which the direct solver's Rayleigh-Ritz step calls too).
    lam_sec runs block by block, ascending within each, and the products
    are the sparse Q (or Q^T) around one dense product per block, a
    :class:`_ParityProducts`.  On a disk the four blocks make the eighs
    16 times and the products 4 times cheaper than one dense eigh of S
    (484 x 484 on a 24-node disk, 121 x 121 per block); a mask with no
    mirror symmetry is one block, Q = I, and gets that dense eigh.  The
    inverse stays exact.  Blocks whose squares sum above
    _SPECTRAL_CUTOFF^2 are refused by :func:`_check_section_size`.

    The products are computed in the dtype of their input.  The basis is
    built in float64, and a float64 stack is multiplied by it as it is; the
    first float32 stack makes float32 copies of its matrices (the direct
    solver's preconditioner applies in float32), which the products keep,
    so a caller that only passes float64, as the section resolvent does,
    never makes them.
    """
    if not grid.mask.all():
        Q, sizes = _parity_basis(grid)
        _check_section_size(grid, sizes)
        A = (Q.T @ laplacian(grid) @ Q).tocsr()
        edges = np.cumsum([0, *sizes])
        rows = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
        lam_sec, Phi = zip(*(eigh(A[r, r].toarray()) for r in rows))
        products = _ParityProducts(Q, rows, Phi)
        return np.concatenate(lam_sec), products.to_modes, products.from_modes
    n2, n3 = grid.mask.shape
    lam_sec = (
        _dirichlet_eigenvalues(grid.h, (n2 + 1) * grid.h, n2)[:, None]
        + _dirichlet_eigenvalues(grid.h, (n3 + 1) * grid.h, n3)[None, :]
    ).ravel()
    sine = _SineProducts(n2, n3)
    return lam_sec, sine, sine


def _bordered_lu(A, lam: float, phi: np.ndarray):
    """rows -> u by one sparse LU of [[A - lam, phi], [phi^T, 0]]: the
    border removes the rhs's part along phi and keeps u orthogonal to it."""
    K = sp.bmat(
        [[A - lam * sp.eye(phi.size), phi[:, None]], [phi[None, :], None]],
        format="csc",
    )
    # minimum degree on K^T + K: the fill of the bordered section
    # Laplacian is 0.57-0.78 of COLAMD's (30^2 and 96^2 squares, 24-node
    # disk), and the solves against every s-row shrink with it
    lu = splu(K, permc_spec="MMD_AT_PLUS_A")

    def solve(rows):
        B = np.concatenate([rows, np.zeros((rows.shape[0], 1))], axis=1)
        return lu.solve(B.T).T[:, :-1]

    return solve


def _sine_resolvent(grid: SectionGrid, lam: float, phi: np.ndarray, w: float):
    """rows -> u by the closed-form deflated inverse of S - lam on a full
    rectangular mask.

    The rows go to the sine basis of :func:`section_basis` (by its row-stack
    entry, so the row stack is neither transposed nor copied), are scaled
    by 1/(mu_k - lam) with the basis vector whose mu_k lies nearest lam
    dropped, and come back; u is then projected off phi in <., .>_w, so
    <u, phi>_w = 0 holds to rounding.  At a multiple eigenvalue a tied
    mu_k stays in and blows up (or, exactly equal, is infinite): the
    residual guard of deflated_solve refuses the result.
    """
    lam_sec, sine, _ = section_basis(grid)
    denom = lam_sec - lam
    denom[np.argmin(np.abs(denom))] = np.inf  # 1/inf = 0 drops mode n
    with np.errstate(divide="ignore"):
        inv = 1.0 / denom

    def solve(rows):
        with np.errstate(invalid="ignore"):
            out = sine.rows(sine.rows(rows) * inv)
            out -= (w * (out @ phi))[:, None] * phi[None, :]
        return out

    return solve


def deflated_solve(
    A, lam: float, phi: np.ndarray, w: float, rows: np.ndarray,
    noise_floor: float, factors: dict, key, inner=None,
) -> tuple[np.ndarray, float]:
    """Rows u of (A - lam) u = P rhs with <u, phi>_w = 0, one per rhs row,
    and the solvability defect of the rhs.

    (lam, phi) is a simple eigenpair of the symmetric sparse A, phi unit in
    <u, v>_w = w sum(u v), P the w-projector off phi.  The inner solver,
    rows -> u, is built once per key and kept in factors[key]: inner() if
    given (deflated_resolvent's closed form on a full rectangular mask),
    else the bordered LU of [[A - lam, phi], [phi^T, 0]].  Around it run
    the two checks every solver shares.  Before: the rhs must be
    orthogonal to phi (noise_floor: magnitude of the rhs before
    cancellation; rows whose norm fell below it are rounding residue and
    are not solvability-checked against themselves), else
    SolvabilityViolation.  After: each row's residual against P rhs must
    be within 1e-10 of the rhs, else SolverFail.  Every row is measured
    against one floor, the larger of noise_floor and the largest row norm
    |rhs|_w: a row is refused where |<rhs, phi>_w| > _ORTHO_TOL * floor,
    and the defect is the largest |<rhs, phi>_w| / max(floor, 1e-300).
    """
    nrm = np.sqrt(w * np.sum(rows**2, axis=1))
    dot = w * (rows @ phi)
    floor = np.maximum(np.max(nrm) if nrm.size else 0.0, noise_floor)
    bad = np.abs(dot) > _ORTHO_TOL * floor
    defect = float((np.abs(dot) / max(floor, 1e-300)).max(initial=0.0))
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise SolvabilityViolation(
            f"mode {key} rhs row {k}: defect {abs(dot[k]):.3e} vs {nrm[k]:.3e}"
        )

    solve = factors.get(key)
    if solve is None:
        solve = factors[key] = inner() if inner else _bordered_lu(A, lam, phi)
    out = solve(rows)
    proj = rows - dot[:, None] * phi[None, :]
    with np.errstate(invalid="ignore"):
        res = np.sqrt(w * np.sum(((A @ out.T).T - lam * out - proj) ** 2, axis=1))
    # not (res <= tol): a NaN residual fails too
    bad = ~(res <= _RESIDUAL_TOL * np.maximum(np.maximum(nrm, noise_floor), 1e-300))
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise SolverFail(f"mode {key} deflated solve residual {res[k]:.3e} (row {k})")
    return out, defect


def deflated_resolvent(
    spectrum: SectionSpectrum, n: int, rhs: np.ndarray, noise_floor: float = 0.0
) -> tuple[np.ndarray, float]:
    """(u, defect): u with (S - lambda_n) u = P_n rhs, <u, phi_n> = 0, for
    one rhs or a stack of rows, and the rhs's solvability defect.  The
    solver is kept per n (see deflated_solve): the closed-form sine
    resolvent on a full rectangular mask, the bordered LU on any other."""
    lam, phi = spectrum.mode(n)
    rhs = np.asarray(rhs, dtype=float)
    grid, w = spectrum.grid, spectrum.h**2
    inner = (lambda: _sine_resolvent(grid, lam, phi, w)) if grid.mask.all() else None
    out, defect = deflated_solve(
        spectrum.ops.S, lam, phi, w, np.atleast_2d(rhs),
        noise_floor, spectrum._factors, n, inner,
    )
    return (out[0] if rhs.ndim == 1 else out), defect

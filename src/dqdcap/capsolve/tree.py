"""Octree partitioning and cluster-to-point far-field operators.

A source node is admitted for a target leaf by the acceptance rule
r_source + r_target < MAC_RATIO * (distance between centers).  The block of
all far targets of one source node against its panels is approximated by
adaptive cross approximation with partial pivoting (ACA; Bebendorf 2000): a
sum of rank-one terms, each a row and a column of the collocation matrix
minus the terms before it.  The partial pivoting overshoots the rank the
tolerance needs, so each cross approximation is then recompressed
(Bebendorf 2008; Grasedyck 2005): an SVD of its k x k core, from the Gram
matrices of its two factors, drops the trailing singular values whose
Frobenius norm is at most ACA_TOL x the block's.  At h = 5 on the reference
device that keeps 3 896 of 6 250 ranks.  A source node of at most
WHOLE_BLOCK_PANELS panels keeps its block whole instead.  A row or column
of the block whose entries all lie at least SERIES_DIAGONALS panel
diagonals from their panels comes from each panel's order-4 moment series,
within 6e-7 of the panel integral and without the corner sum's
cancellation at distance; any other comes from potential_block, the corner
sum of the exact near field.
"""

from __future__ import annotations

import mmap

import numpy as np

from ..constants import EPS0
from .kernels import panel_frames, potential_block

# a rank-one term is small below ACA_TOL x the block's Frobenius norm, and the
# recompression drops trailing singular values whose norm is at most that
ACA_TOL = 1e-4
ACA_SMALL_STEPS = 2  # stop after this many small terms in a row; one alone is not robust
SLAB_VALUES = 1 << 20  # U values per shared allocation of the far field (4 MB)
# U is accurate to ACA_TOL only, so it is stored in float32: rounding it moves each
# far value by at most 2**-24 of itself.  All arithmetic on it stays float64.
FAR_DTYPE = np.float32
LEAF_SIZE = 32  # most panels per octree leaf
MAC_RATIO = 0.5  # the acceptance rule's ratio: of 0.4 to 0.7, the best trade of time and accuracy
# ACA rows and columns use the panels' moment series only this many panel diagonals
# out, where its relative error is below 6e-7; nearer entries take the corner sum
SERIES_DIAGONALS = 4.0
# A source node of at most this many panels (always a leaf) keeps its far block
# whole.  At h = 5 on the reference device the ACA reaches full rank on every such
# node of up to 8 panels, and rank 11.0 on 11.8 panels for 9 to 16, so its steps
# save almost no values.  It truly truncates larger leaves (rank 14 to 16 for 20 to
# 30 panels): keeping those whole too adds 5-8% far values at h = 5 (all measured
# before the ACA was recompressed).
WHOLE_BLOCK_PANELS = LEAF_SIZE // 2


class Node:
    __slots__ = ("center", "half", "panels", "children", "radius")

    def __init__(self, center, half):
        self.center = center
        self.half = half
        self.panels = None  # leaf panel indices
        self.children = []
        self.radius = 0.0

    @property
    def is_leaf(self):
        return not self.children


def build_octree(mesh, leaf_size):
    centroids = mesh.centroids
    lo = centroids.min(axis=0)
    hi = centroids.max(axis=0)
    center = 0.5 * (lo + hi)
    half = 0.5 * float((hi - lo).max()) * 1.0000001 + 1e-30
    root = Node(center, half)
    leaves = []
    _split(root, np.arange(mesh.n_panels), centroids, leaf_size, leaves)
    _set_radius(root, mesh.corners)
    return root, leaves


# Module functions, not closures: a nested function that calls itself is a
# reference cycle, and would keep the mesh alive until the cyclic GC runs.
def _split(node, idx, centroids, leaf_size, leaves):
    """Split node's panels idx by octant down to leaf_size, appending leaves depth first."""
    if len(idx) <= leaf_size:
        node.panels = idx
        leaves.append(node)
        return
    rel = centroids[idx] > node.center
    octant = rel[:, 0] * 1 + rel[:, 1] * 2 + rel[:, 2] * 4
    for o in range(8):
        sub = idx[octant == o]
        if not len(sub):
            continue
        off = np.array([(o & 1), (o >> 1) & 1, (o >> 2) & 1]) - 0.5
        child = Node(node.center + off * node.half, 0.5 * node.half)
        node.children.append(child)
        _split(child, sub, centroids, leaf_size, leaves)


def _set_radius(node, corners):
    """Conservative cluster radii from panel corners, propagated upward; returns node's."""
    if node.is_leaf:
        pts = corners[node.panels].reshape(-1, 3)
        node.radius = float(np.linalg.norm(pts - node.center, axis=1).max())
    else:
        node.radius = max(
            _set_radius(ch, corners) + float(np.linalg.norm(ch.center - node.center))
            for ch in node.children
        )
    return node.radius


def _preorder(root):
    """Nodes in depth-first preorder, children in order."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(node.children))
    return order


def interaction_lists(root, leaves, mac_ratio):
    """Per target leaf: admissible source nodes (far) and source leaves (near).

    A source node is far when r_source + r_target < mac_ratio * |c_source -
    c_target|, near when it is an inadmissible leaf, and opened otherwise.
    All target leaves descend the tree together, one level per step, and
    each list keeps its nodes in depth-first order.
    """
    nodes = _preorder(root)
    at = {node: i for i, node in enumerate(nodes)}  # nodes hash by identity
    center = np.array([node.center for node in nodes])
    radius = np.array([node.radius for node in nodes])
    n_children = np.array([len(node.children) for node in nodes])
    first_child = np.cumsum(n_children) - n_children
    children = np.array([at[ch] for node in nodes for ch in node.children], dtype=np.int64)
    target = np.array([at[leaf] for leaf in leaves], dtype=np.int64)

    far, near = [], []  # (target leaf positions, source nodes) found per level
    t = np.arange(len(leaves))
    s = np.zeros(len(leaves), dtype=np.int64)
    while len(t):
        d = center[s] - center[target[t]]
        # a stack of d @ d products, bitwise the dot product of each d
        dist = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
        admitted = radius[s] + radius[target[t]] < mac_ratio * dist
        is_near = ~admitted & (n_children[s] == 0)
        far.append((t[admitted], s[admitted]))
        near.append((t[is_near], s[is_near]))
        opened = ~(admitted | is_near)
        t, s = t[opened], s[opened]
        count = n_children[s]
        t = np.repeat(t, count)
        s = children[np.repeat(first_child[s] - np.cumsum(count) + count, count)
                     + np.arange(len(t))]

    node_of = np.empty(len(nodes), dtype=object)
    node_of[:] = nodes

    def per_leaf(pairs):
        t = np.concatenate([p[0] for p in pairs])
        s = np.concatenate([p[1] for p in pairs])
        order = np.lexsort((s, t))  # preorder positions are depth-first order
        ends = np.cumsum(np.bincount(t, minlength=len(leaves)))
        return [chunk.tolist() for chunk in np.split(node_of[s[order]], ends[:-1])]

    return per_leaf(far), per_leaf(near)


def _subtree_panels(node):
    if node.is_leaf:
        return node.panels
    return np.concatenate([_subtree_panels(ch) for ch in node.children])


def _cross_approximation(row, col, n_rows, n_cols):
    """Partially pivoted ACA of an n_rows x n_cols block from its exact rows and columns.

    Returns U (k, n_rows) and V (k, n_cols) with block ~= U.T @ V.  Each
    term takes the next row where the last column is largest, and its column
    where that row's residual is largest; it stops after ACA_SMALL_STEPS
    terms in a row below ACA_TOL times the running Frobenius estimate.
    """
    U = np.empty((8, n_rows))
    V = np.empty((8, n_cols))
    row_free = np.ones(n_rows, dtype=bool)
    col_used = np.zeros(n_cols, dtype=bool)
    k = small = 0
    norm2 = 0.0
    i = 0
    while small < ACA_SMALL_STEPS and k < min(n_rows, n_cols) and row_free[i]:
        row_free[i] = False
        r = row(i) - U[:k, i] @ V[:k]
        a = np.abs(r)
        a[col_used] = -1.0
        j = int(np.argmax(a))
        if a[j] <= 0.0:  # the residual vanishes on the pivot row: nothing left to add
            break
        v = r / r[j]
        u = col(j) - V[:k, j] @ U[:k]
        col_used[j] = True
        if k == len(U):
            U = np.concatenate([U, np.empty_like(U)])
            V = np.concatenate([V, np.empty_like(V)])
        uu, vv = u @ u, v @ v
        norm2 += uu * vv + 2.0 * (U[:k] @ u) @ (V[:k] @ v)
        U[k], V[k] = u, v
        k += 1
        small = small + 1 if uu * vv <= ACA_TOL * ACA_TOL * norm2 else 0
        a = np.abs(u)
        a[~row_free] = -1.0
        i = int(np.argmax(a))
    return U[:k], V[:k]


def _recompress(U, V):
    """U.T @ V truncated to its ACA_TOL rank: (U, V) with fewer rows, or the same ones.

    With the Gram matrices U U.T = P diag(a) P.T and V V.T = Q diag(b) Q.T,
    U.T = (U.T P a^-1/2)(a^1/2 P.T) and V.T likewise, each first factor
    with orthonormal columns, so the SVD W S Z.T of the k x k core
    a^1/2 P.T Q b^1/2 gives the block's singular values S.  The trailing
    ones are dropped while the Frobenius norm of the dropped tail is at most
    ACA_TOL times the block's, ||S||.  The new U carries S, and the new V
    has orthonormal rows.  Gram eigenvalues below k eps of the largest are
    rounding, and their directions are left out.  When no rank is dropped,
    k <= 1 included, U and V come back unchanged.
    """
    k = len(U)
    if k <= 1:
        return U, V
    factors = []
    for X in (U, V):
        w, E = np.linalg.eigh(X @ X.T)  # ascending
        keep = w > k * np.finfo(float).eps * w[-1]
        factors.append((E[:, keep], np.sqrt(w[keep])))
    (P, ra), (Q, rb) = factors  # ra = a^1/2, rb = b^1/2
    W, S, Zt = np.linalg.svd(ra[:, None] * (P.T @ Q) * rb, full_matrices=False)
    tail = np.sqrt(np.cumsum(S[::-1] ** 2))[::-1]  # tail[r]: the norm of S[r:]
    r = int(np.count_nonzero(tail > ACA_TOL * tail[:1]))  # tail[0] is ||S||
    if r == k:
        return U, V
    return ((P / ra) @ (W[:, :r] * S[:r])).T @ U, ((Q / rb) @ Zt[:r].T).T @ V


def by_source(leaves, lists):
    """Invert per-target-leaf node lists: [(source node, its target leaves)].

    Sources come in first-use order, and each one's target leaves in leaf
    order.
    """
    targets = {}  # nodes hash by identity
    for leaf, nodes in zip(leaves, lists):
        for node in nodes:
            targets.setdefault(node, []).append(leaf)
    return list(targets.items())


def index_type(bound):
    """The smaller integer dtype that holds indices up to bound."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def mapped_zeros(values, dtype=np.float64):
    """A zeroed array in a private anonymous mapping of its own, off the heap.

    The mapping is unmapped once no view of it is left, and its 4 kB pages
    are committed only as they are written.  On the heap, once glibc's
    dynamic mmap threshold has risen, whatever is allocated after a large
    array there keeps the heap from shrinking when the array is freed; and
    numpy asks for transparent huge pages on its own large arrays, which
    commits them 2 MB at a time.
    """
    dtype = np.dtype(dtype)
    if not values:  # mmap refuses a zero length
        return np.zeros(0, dtype)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
    return np.frombuffer(mmap.mmap(-1, dtype.itemsize * values, flags=flags), dtype)


class FarField:
    """The U side of the far field: far potentials U.T @ g, per source node.

    sources holds (node, target leaves, cols, U) for each admitted source
    node.  cols are its far columns, indices into g = [q; M @ charges]: n
    plus its rows of M for a cross approximation, or its own panels for a
    whole block.  U (len(cols), far targets) has the rows of its target
    leaves' panels, in leaf order, rounded to FAR_DTYPE from float64.
    nnz counts the U values.  The U are views of SLAB_VALUES-sized slabs
    (mapped_zeros), filled in source order; drain pops them, last first, so
    each slab is unmapped as soon as its last U is placed.
    """

    def __init__(self, sources):
        self.sources = sources
        self.nnz = sum(u.size for *_, u in sources)

    def drain(self):
        """Yield (cols, target leaves, U.T) per source, last first, popping each as it goes."""
        while self.sources:
            _, targets, cols, u = self.sources.pop()
            yield cols, targets, u.T


class FarRanks:
    """M, the V side of the far field: M @ q, a k x n map from charges to ranks.

    blocks holds (first rank, panels, V) for each cross approximation, in
    source order: V (r, len(panels)) fills rows first to first + r of M at
    the columns panels, and the blocks cover rows 0 to k once each.  The
    product takes one V @ q[panels] per block, for one vector or an n x p
    block.  nnz counts the V values.
    """

    def __init__(self, blocks, shape):
        self.blocks = blocks
        self.shape = shape
        self.nnz = sum(v.size for *_, v in blocks)

    def __matmul__(self, q):
        out = np.empty(self.shape[:1] + q.shape[1:])
        for first, panels, v in self.blocks:
            out[first:first + len(v)] = v @ np.take(q, panels, axis=0)
        return out


def _series_forms(quads, pref):
    """Each panel's far form K (4, 4, m): its potential per unit charge is e^T K e / R.

    For a uniformly charged a x b rectangle and a field point (x, y, z) from
    its centre in its own frame, R^2 = x^2 + y^2 + z^2 and
    e = (1, 1/R^2, x^2/R^4, y^2/R^4).  This is the order-4 moment series:
    the monopole, the second moments a^2/12 and b^2/12 and the fourth
    moments a^4/80, a^2 b^2/144 and b^4/80 against the derivatives of 1/R,
    times pref.  Its relative error is O((a/R)^6 + (b/R)^6).  Also returns
    each panel's gate, (SERIES_DIAGONALS diagonals)^2.
    """
    a2 = np.sum((quads[:, 1] - quads[:, 0]) ** 2, axis=1)
    b2 = np.sum((quads[:, 3] - quads[:, 0]) ** 2, axis=1)
    a4, ab, b4 = a2 * a2, a2 * b2, b2 * b2
    K = np.zeros((4, 4, len(quads)))
    K[0, 0] = 1.0
    K[0, 1] = -(a2 + b2) / 24.0
    K[0, 2] = a2 / 8.0
    K[0, 3] = b2 / 8.0
    K[1, 1] = 3.0 * (a4 + b4) / 640.0 + ab / 192.0
    K[1, 2] = -3.0 * a4 / 64.0 - 5.0 * ab / 192.0
    K[1, 3] = -3.0 * b4 / 64.0 - 5.0 * ab / 192.0
    K[2, 2] = 7.0 * a4 / 128.0
    K[2, 3] = 35.0 * ab / 192.0
    K[3, 3] = 7.0 * b4 / 128.0
    K *= pref
    return K, SERIES_DIAGONALS ** 2 * (a2 + b2)


def _powers(d, r2):
    """e = (1, 1/R^2, x^2/R^4, y^2/R^4) from squared frame offsets d (3, m) and R^2."""
    e = np.empty((4, len(r2)))
    e[0] = 1.0
    np.divide(1.0, r2, out=e[1])
    np.multiply(d[:2], e[1] * e[1], out=e[2:])
    return e


def _whole_block(mesh, idx, tidx, epsilon_r, K, gate, fr_stack, off, tpts_t):
    """The far block of panels idx at the centroids of tidx, transposed: (panels, targets).

    Every panel column comes from the panels' moment series at once (K,
    gate, the stacked frames fr_stack, the node-relative panel centres off
    in each frame and targets tpts_t, as in build_far_operators), except
    those with an entry inside the gate, which come from potential_block.
    """
    p = len(idx)
    d = (fr_stack @ tpts_t).reshape(3, p, -1) - off[:, :, None]
    d *= d
    r2 = d.sum(axis=0)
    e = _powers(d.reshape(3, -1), r2.reshape(-1)).reshape(4, p, -1)
    w = np.einsum("klp,kpt,lpt->pt", K, e, e) * np.sqrt(e[1])
    near = r2.min(axis=1) < gate
    if near.any():
        w[near] = potential_block(mesh, mesh.centroids[tidx], idx[near], epsilon_r).T
    return w


def build_far_operators(mesh, leaves, far_lists, epsilon_r):
    """Far field: (FarField, M), M the FarRanks with one row per rank of a cross approximation.

    Each source node admitted by some target leaf gets one block of its far
    targets against its subtree panels.  A node of at most
    WHOLE_BLOCK_PANELS panels keeps the whole block, its columns its panels;
    a larger one gets a cross approximation U.T @ V, recompressed to its
    ACA_TOL rank (_recompress), whose V is kept as one block of M and whose
    U stays with its node in the FarField.  A row or column of the block
    comes from the panels' moment series when each of its entries is at
    least SERIES_DIAGONALS panel diagonals from its panel's centre, and
    from potential_block otherwise.
    """
    corners = mesh.corners
    centroids = mesh.centroids
    n = mesh.n_panels
    pref = 1.0 / (4.0 * np.pi * EPS0 * epsilon_r)

    sources, m_blocks = [], []
    k = 0  # rows of M so far
    slab, used = np.empty(0, FAR_DTYPE), 0
    for node, targets in by_source(leaves, far_lists):
        idx = _subtree_panels(node)
        tidx = np.concatenate([t.panels for t in targets])
        # coordinates relative to the node center, so far values keep their digits
        quads = corners[idx]
        fr = panel_frames(quads)
        off = np.einsum("pax,px->ap", fr, centroids[idx] - node.center)
        fr_stack = np.ascontiguousarray(fr.transpose(1, 0, 2)).reshape(-1, 3)
        K, gate = _series_forms(quads, pref)
        tpts = centroids[tidx] - node.center
        tpts_t = np.ascontiguousarray(tpts.T)

        def row(i):
            d = (fr_stack @ tpts[i]).reshape(3, -1) - off
            d *= d
            r2 = d.sum(axis=0)
            if not np.all(r2 >= gate):
                return potential_block(mesh, centroids[tidx[i], None], idx, epsilon_r)[0]
            e = _powers(d, r2)
            return np.einsum("klm,km,lm->m", K, e, e) * np.sqrt(e[1])

        def col(j):
            d = fr[j] @ tpts_t - off[:, j, None]
            d *= d
            r2 = d.sum(axis=0)
            if r2.min() < gate[j]:
                return potential_block(mesh, centroids[tidx], idx[j:j + 1], epsilon_r)[:, 0]
            e = _powers(d, r2)
            return np.sum(e * (K[:, :, j] @ e), axis=0) * np.sqrt(e[1])

        if len(idx) <= WHOLE_BLOCK_PANELS:
            U = _whole_block(mesh, idx, tidx, epsilon_r, K, gate, fr_stack, off, tpts_t)
            cols = idx
        else:
            U, V = _recompress(*_cross_approximation(row, col, len(tidx), len(idx)))
            # an unchanged V is a view of the ACA's spare rows: keep an exact-size copy
            m_blocks.append((k, idx, V if V.base is None else V.copy()))
            cols = np.arange(n + k, n + k + len(U))
            k += len(U)
        # an exact-size FAR_DTYPE copy, without the ACA's spare rows, in a shared slab
        if used + U.size > len(slab):
            slab, used = mapped_zeros(max(SLAB_VALUES, U.size), FAR_DTYPE), 0
        u = slab[used:used + U.size].reshape(U.shape)
        u[...] = U
        used += U.size
        sources.append((node, targets, cols, u))
    return FarField(sources), FarRanks(m_blocks, (k, n))

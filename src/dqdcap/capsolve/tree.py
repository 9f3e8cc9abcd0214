"""Octree partitioning and cluster-to-point far-field operators.

A source node is admitted for a target leaf by the acceptance rule
r_source + r_target < MAC_RATIO * (distance between centers).  The block of
all far targets of one source node against its panels is approximated by
adaptive cross approximation with partial pivoting (ACA; Bebendorf 2000): a
sum of rank-one terms, each an exact row and an exact column of the
collocation matrix minus the terms before it.  Rows and columns come from
the same corner antiderivative as the exact near field.
"""

from __future__ import annotations

import mmap

import numpy as np
from scipy import sparse

from ..constants import EPS0
from .kernels import panel_frames, panel_sums

ACA_TOL = 1e-4  # a rank-one term is small below ACA_TOL x the block's Frobenius norm
ACA_SMALL_STEPS = 2  # stop after this many small terms in a row; one alone is not robust
SLAB_VALUES = 1 << 20  # U values per shared allocation of the far field (4 MB)
# U is accurate to ACA_TOL only, so it is stored in float32: rounding it moves each
# far value by at most 2**-24 of itself.  All arithmetic on it stays float64.
FAR_DTYPE = np.float32
LEAF_SIZE = 32  # most panels per octree leaf
MAC_RATIO = 0.5  # the acceptance rule's ratio: of 0.4 to 0.7, the best trade of time and accuracy


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


def block_csr(blocks, shape):
    """CSR matrix from dense blocks (rows, cols, W), W[a, b] placed at (rows[a], cols[b]).

    Each row lies in at most one block and keeps its block's column order.
    """
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    for rows, cols, _ in blocks:
        indptr[rows + 1] = len(cols)
    nnz = int(np.cumsum(indptr, out=indptr)[-1])
    # scipy keeps int32 indices that fit, and would copy int64 ones down to them
    index_dtype = index_type(max(nnz, *shape))
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    for rows, cols, w in blocks:
        pos = indptr[rows][:, None] + np.arange(len(cols))
        data[pos] = w
        indices[pos] = cols
    return sparse.csr_matrix((data, indices, indptr.astype(index_dtype)), shape=shape)


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
    """The U side of the far field: far potentials U.T @ (M @ charges), per source node.

    sources holds (node, target leaves, ranks, U) for each admitted source
    node: ranks are its rows of M, and U (k, far targets) has the rows of
    its target leaves' panels, in leaf order, rounded to FAR_DTYPE from the
    cross approximation's float64.  nnz counts the U values.
    The U are views of SLAB_VALUES-sized slabs (mapped_zeros), filled in
    source order, so a consumer that drops the sources last to first
    unmaps each slab as soon as its last U is gone.
    """

    def __init__(self, sources):
        self.sources = sources
        self.nnz = sum(u.size for *_, u in sources)


def build_far_operators(mesh, leaves, far_lists, epsilon_r):
    """Far field by cross approximation: (FarField, M), M sparse with one row per rank.

    Each source node admitted by some target leaf gets one cross
    approximation U.T @ V of its far targets against its subtree panels;
    V fills rows of M, and U stays with its node in the FarField.
    """
    corners = mesh.corners
    frames = panel_frames(corners)
    scale = 1.0 / (4.0 * np.pi * EPS0 * epsilon_r * mesh.areas)
    centroids = mesh.centroids

    sources, m_blocks = [], []
    k = 0  # rows of M so far
    slab, used = np.empty(0, FAR_DTYPE), 0
    for node, targets in by_source(leaves, far_lists):
        idx = _subtree_panels(node)
        tidx = np.concatenate([t.panels for t in targets])
        # coordinates relative to the node center, so far values keep their digits
        fr = frames[idx]
        rel = corners[idx] - node.center
        u_off, v_off = np.einsum("pax,pcx->acp", fr[:, :2], rel)
        w_off = np.einsum("px,px->p", fr[:, 2], rel[:, 0])
        fr_stack = np.ascontiguousarray(fr.transpose(1, 0, 2)).reshape(-1, 3)
        sc = scale[idx]
        tpts = centroids[tidx] - node.center
        tpts_t = np.ascontiguousarray(tpts.T)

        def row(i):
            proj = (fr_stack @ tpts[i]).reshape(3, -1)
            return panel_sums(proj, u_off, v_off, w_off) * sc

        def col(j):
            proj = fr[j] @ tpts_t
            return panel_sums(proj, u_off[:, j, None], v_off[:, j, None], w_off[j]) * sc[j]

        U, V = _cross_approximation(row, col, len(tidx), len(idx))
        # an exact-size FAR_DTYPE copy, without the ACA's spare rows, in a shared slab
        if used + U.size > len(slab):
            slab, used = mapped_zeros(max(SLAB_VALUES, U.size), FAR_DTYPE), 0
        u = slab[used:used + U.size].reshape(U.shape)
        u[...] = U
        used += U.size
        ranks = np.arange(k, k + len(U))
        k += len(U)
        sources.append((node, targets, ranks, u))
        m_blocks.append((ranks, idx, V))
    return FarField(sources), block_csr(m_blocks, (k, mesh.n_panels))

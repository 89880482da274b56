"""Slow, independent reference implementations for the test suite.

Each one computes what a fast path in ctwin computes, by the textbook
route and mostly in pure Python: the twin truth tables by big-int
shifts, graph6 characters packed one 6-bit row at a time, edge lists
pair by pair, butterflies on a list, spectra, bentness and duals read
off them, algebraic normal forms by the Moebius butterfly, supports,
complements and differences counted entry by entry or pair by pair,
Delta_m rebuilt pair by pair from signed-permutation products, common
neighbours counted on packed adjacency rows, swaps checked pair by pair
and translated to fix vertex 0, swaps and automorphisms found by
backtracking over every vertex (a min-domain walk on constraint masks
built pair by pair, and a recursive search in natural vertex order),
and Delta_m's coset blocks read off one Walsh spike per coset.  A graph6 decoder, bit
by bit, reads ctwin's payloads back.  Maiorana-McFarland bent functions
are joined block by block from linear functions.
`first_translate_only` stands in for the translate walk where a test
asserts that an accepted set reads T_d for lambda and mu and walks no
further.  `dense` writes a signed permutation out as its matrix.
`dual` and `concatenate` (four quadrants joined into one table) have no
fast path in ctwin: the tests of the 4-concatenation lemma in the
`ctwin.bent` docstring read duals and quadrant joins from them.
They are quadratic where ctwin is spectral, and the walks visit up to
millions of nodes at m = 3 where ctwin's search reduces 28 equations, so
tests use them at small sizes.
"""

import random

import numpy as np

from ctwin import twins
from ctwin.algebra import SymmetryClass, classify, gamma
from ctwin.bent import BoolFunc, DiffSetParams, sigma, tau
from ctwin.graphs import BLUE, RED, DifferenceGraph, SrgParams, build_delta
from ctwin.swap import SearchStatus, SwapMap


def twin_bits(m):
    """Truth tables of (sigma_m, tau_m) as Python ints, built level by
    level from the one-entry level 0, where both are 0, by the quadrant
    rules; only the previous level's pair is kept."""
    s = t = 0
    for level in range(1, m + 1):
        q = 1 << (2 * level - 2)
        flipped = s ^ ((1 << q) - 1)
        s, t = (
            s | (flipped << q) | (s << (2 * q)) | (s << (3 * q)),
            t | (s << q) | (flipped << (2 * q)) | (t << (3 * q)),
        )
    return s, t


def graph6_chars(bits):
    """graph6 characters of a bool array: each row of 6 bits (the last
    padded with 0s) packed on its own, most significant bit first, and
    offset by 63."""
    bits = np.concatenate((bits, np.zeros(-bits.size % 6, dtype=bool)))
    return ((np.packbits(bits.reshape(-1, 6), axis=1) >> 2) + 63).tobytes()


def int8_bytes(values):
    """A colour table as the int8 bytes a DifferenceGraph holds."""
    return np.array(values, np.int8).tobytes()


def support(f):
    """The inputs where f is 1, in ascending order, read off its table."""
    return tuple(i for i, b in enumerate(f.table()) if b)


def complement(f):
    """1 - f, entry by entry."""
    return BoolFunc.from_values(f.n, [1 - b for b in f.table()])


def concatenate(f0, f1, f2, f3):
    """The function on two more bits whose quadrant q (the top base-4
    digit of the index) holds the table of f_q."""
    q = f0.size
    return BoolFunc.from_bits(f0.n + 2, f0.bits | f1.bits << q | f2.bits << 2 * q | f3.bits << 3 * q)


def degree(graph, colour):
    """The neighbours of vertex 0 in the colour, counted one by one."""
    kappa = graph.kappa
    return sum(1 for b in range(1, graph.v) if kappa[b] == colour)


def from_graph6(data):
    """Decode graph6 bytes into (vertex count, sorted edge list), bit by bit."""
    if not data:
        raise ValueError("empty graph6 payload")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise ValueError("unsupported graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[pos // 6] - 63
            if (byte >> (5 - pos % 6)) & 1:
                edges.append((i, j))
            pos += 1
    return n, sorted(edges)


def upper_triangle_kappa(graph):
    """graph6's order of the pairs i < j, column by column, as an int8
    array of their colours kappa[i ^ j]."""
    kappa = graph.kappa
    v = graph.v
    pairs = v * (v - 1) // 2
    colours = (kappa[i ^ j] for j in range(1, v) for i in range(j))
    return np.fromiter(colours, np.int8, count=pairs)


def edge_list(graph, colour):
    """Every pair a < b whose difference carries the colour, pair by pair."""
    kappa = graph.kappa
    v = graph.v
    return [(a, b) for a in range(v) for b in range(a + 1, v) if kappa[a ^ b] == colour]


def unpacked(f):
    """f's whole truth table at once, as a uint8 0/1 array."""
    return np.unpackbits(np.frombuffer(f.packed, np.uint8), count=f.size, bitorder="little")


def fwht(values):
    """Butterfly transform by the Sylvester matrix on Python ints."""
    out = list(values)
    n = len(out)
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            for j in range(start, start + h):
                x, y = out[j], out[j + h]
                out[j] = x + y
                out[j + h] = x - y
        h *= 2
    return out


def anf(bits):
    """The algebraic normal form of a truth table by the Moebius
    transform: entry s is the coefficient of the monomial of the input
    bits set in s, the XOR of the table over the subsets of s."""
    out = list(bits)
    h = 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for j in range(start, start + h):
                out[j + h] ^= out[j]
        h *= 2
    return out


def walsh_transform(f):
    """Spectrum of (-1)^f by the butterfly above."""
    return fwht([1 - 2 * b for b in f.table()])


def is_bent(f):
    """Every spectrum entry has magnitude 2^(n/2); never for odd n."""
    return f.n % 2 == 0 and all(abs(w) == 1 << (f.n // 2) for w in walsh_transform(f))


def dual(f):
    """The dual of a bent f from its spectrum signs; for any other f,
    ValueError naming the first entry of the wrong magnitude."""
    if f.n & 1:
        raise ValueError("input not bent: odd arity")
    spectrum = walsh_transform(f)
    for i, w in enumerate(spectrum):
        if abs(w) != 1 << (f.n // 2):
            raise ValueError(f"input not bent: spectrum entry {w} at {i}")
    return BoolFunc.from_values(f.n, [int(w < 0) for w in spectrum])


def block_table(k, columns, codes):
    """The table on 2k bits, k >= 3, whose block y (the entries whose
    index has y as its top k bits) is the XOR of the tables columns[j],
    ints of 2^k bits, over the bits j of codes[y], joined block by block
    so that no int of the whole table is made."""
    width = (1 << k) >> 3

    def block(code):
        t = 0
        for j, column in enumerate(columns):
            if code >> j & 1:
                t ^= column
        return t.to_bytes(width, "little")

    return BoolFunc(2 * k, b"".join(map(block, codes)))


def maiorana_mcfarland(k, seed):
    """The bent function f(y, x) = pi(y).x on 2k bits, k >= 3, with y the
    top k bits of the index and pi the permutation of GF(2)^k that
    random.Random(seed) shuffles.  Block y of f is the linear function
    of pi(y), so f has 2^k distinct blocks, none the complement of
    another.  Summing over x first, W_f(u, w) = sum_y (-1)^(u.y) 2^k
    [pi(y) = w] = 2^k (-1)^(u.pi^-1(w))."""
    size = 1 << k
    pi = list(range(size))
    random.Random(seed).shuffle(pi)
    units = [int("".join(str(x >> j & 1) for x in reversed(range(size))), 2) for j in range(k)]
    return block_table(k, units, pi)


def autocorrelation(f):
    """counts[d] = |S & (S ^ d)| for the support S of f, d = 0 included,
    by Wiener-Khinchin on whole lists of Python ints: the transform of
    the squared spectrum of S's 0/1 indicator is v times the counts."""
    return [c >> f.n for c in fwht([w * w for w in fwht(f.table())])]


def difference_counts(support, v):
    """counts[g] = ordered pairs (a, b) of distinct support elements with a^b = g."""
    counts = [0] * v
    for a in support:
        for b in support:
            counts[a ^ b] += 1
    counts[0] = 0
    return counts


def is_hadamard(params):
    """A difference set's (v, k, lam, n) is Hadamard: v = 4n."""
    return params.v == 4 * params.n


def difference_set_params(f):
    """verify_difference_set by pairwise counting, with its error messages."""
    elements = support(f)
    v = f.size
    if not elements:
        raise ValueError("support is empty")
    if len(elements) == v:
        raise ValueError("support is the whole group")
    counts = difference_counts(elements, v)
    lam = counts[1]
    for g in range(2, v):
        if counts[g] != lam:
            raise ValueError(
                f"not a difference set: difference 1 occurs {lam} times "
                f"but difference {g} occurs {counts[g]} times"
            )
    k = len(elements)
    return DiffSetParams(v, k, lam, k - lam)


def pairwise_delta(m, gamma=gamma):
    """oracle_build_delta pair by pair on SignedPerm objects, with its
    error messages; `gamma` supplies the basis matrices."""
    v = 1 << (2 * m)
    basis = [gamma(m, i) for i in range(v)]
    for i, g in enumerate(basis):
        cls = classify(g)
        if sigma(m, i) != (cls is SymmetryClass.SKEW):
            raise RuntimeError(f"sigma mismatch at index {i}")
        if tau(m, i) != (cls is SymmetryClass.SYMMETRIC_OFF_DIAGONAL):
            raise RuntimeError(f"tau mismatch at index {i}")
    seen = {0: 0}
    for a in range(v):
        pa = basis[a].perm
        for b in range(a + 1, v):
            pb = basis[b].perm
            disjoint = all(ra != rb for ra, rb in zip(pa, pb))
            if not disjoint:
                colour = 0
            else:
                cls = classify(basis[a] * basis[b].transpose())
                colour = RED if cls is SymmetryClass.SKEW else BLUE
            d = a ^ b
            if seen.setdefault(d, colour) != colour:
                raise RuntimeError(f"pairs with difference {d} disagree on colour")
    return DifferenceGraph(2 * m, int8_bytes([seen[d] for d in range(v)]))


def first_translate_only(a, levels, start=0):
    """A stand-in for `twins._translates`: hands out T_start, as lambda
    and mu read it, and fails on any further step of the walk."""
    yield next(twins._translates(a, levels, start))
    raise AssertionError("an accepted set walked its translates")


def dense(g):
    """The signed permutation matrix g as rows of integers: column c has
    g.signs[c] in row g.perm[c] and 0 elsewhere."""
    rows = [[0] * g.n for _ in range(g.n)]
    for c in range(g.n):
        rows[g.perm[c]][c] = g.signs[c]
    return rows


def random_invertible(rng, n):
    """Rows of a random invertible n x n matrix over GF(2), as bitmasks."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(n)]
        span = {0}
        for r in rows:
            if r in span:
                break
            span |= {x ^ r for x in span}
        else:
            return rows


def apply(rows, x):
    return sum(((row & x).bit_count() & 1) << r for r, row in enumerate(rows))


def relabel(values, rows):
    """The table x -> values[A x]."""
    return [values[apply(rows, x)] for x in range(len(values))]


def adjacency_rows(graph, colour):
    """Packed neighbour bitmasks of one colour class, one int per vertex."""
    kappa = graph.kappa
    diffs = [d for d in range(1, graph.v) if kappa[d] == colour]
    rows = []
    for a in range(graph.v):
        row = 0
        for d in diffs:
            row |= 1 << (a ^ d)
        rows.append(row)
    return rows


def srg_params_from_rows(rows):
    """Verify strong regularity of an arbitrary adjacency-row list.

    Exhaustive over all vertex pairs; common neighbours are counted by
    intersecting packed rows.
    """
    v = len(rows)
    k = rows[0].bit_count()
    for a in range(1, v):
        if rows[a].bit_count() != k:
            raise ValueError(
                f"degree not constant: vertex 0 has {k}, "
                f"vertex {a} has {rows[a].bit_count()}"
            )
    if k == 0:
        raise ValueError("graph is empty in this colour")
    lam = mu = None
    for a in range(v):
        row_a = rows[a]
        for b in range(a + 1, v):
            common = (row_a & rows[b]).bit_count()
            if (row_a >> b) & 1:
                if lam is None:
                    lam = common
                elif common != lam:
                    raise ValueError(
                        f"lambda not constant: adjacent pair ({a}, {b}) "
                        f"has {common} common neighbours, expected {lam}"
                    )
            else:
                if mu is None:
                    mu = common
                elif common != mu:
                    raise ValueError(
                        f"mu not constant: non-adjacent pair ({a}, {b}) "
                        f"has {common} common neighbours, expected {mu}"
                    )
    if lam is None:
        raise ValueError("graph has no adjacent pairs")
    if mu is None:
        raise ValueError("graph has no non-adjacent pairs")
    return SrgParams(v, k, lam, mu)


def verify_swap(m, phi):
    """verify_swap pair by pair: kappa[phi[a] ^ phi[b]] = -kappa[a ^ b]
    for every a < b of Delta_m."""
    kappa = build_delta(m).kappa
    v = len(kappa)
    for a in range(v):
        pa = phi[a]
        for b in range(a + 1, v):
            if kappa[pa ^ phi[b]] != -kappa[a ^ b]:
                return False
    return True


def normalize(swap):
    """A swap translated so that vertex 0 is fixed.  XOR by phi[0] keeps
    every pair difference, so the result is still a swap; ValueError for
    a map that is not one."""
    if not verify_swap(swap.m, swap.phi):
        raise ValueError("map does not swap the colours")
    t = swap.phi[0]
    return SwapMap(swap.m, tuple(p ^ t for p in swap.phi))


def tables(m):
    """The walk's constraint masks, pair by pair: kappa of Delta_m and
    masks[t + 1][y], which packs every x != y with kappa[x ^ y] = t, so
    the image of a new vertex constrained against an assigned image y is
    one AND away, and that AND also rules out y itself."""
    kappa = build_delta(m).kappa
    v = len(kappa)
    masks = [[0] * v for _ in range(3)]
    for y in range(v):
        for x in range(v):
            if x != y:
                masks[kappa[x ^ y] + 1][y] |= 1 << x
    return kappa, masks


def _min_domain_frame(verts, doms):
    """Frame branching on the first of `verts` with the fewest candidates,
    or None when some domain is empty."""
    sizes = [d.bit_count() for d in doms]
    k = min(sizes)
    if not k:
        return None
    i = sizes.index(k)
    return [verts[i], doms[i], (verts[:i] + verts[i + 1 :], doms[:i] + doms[i + 1 :])]


def min_domain_walk(m, sign, visit, node_budget=None, domains=None):
    """Depth-first min-domain walk over the maps with phi[0] = 0 and
    kappa[phi[a] ^ phi[b]] = sign * kappa[a ^ b] for all a, b, on the
    constraint masks of `tables`; it needs no fact about Delta_m.

    One explicit stack of frames [vertex, candidates left, (other
    unassigned vertices, their domains)]; a frame branches on the first
    unassigned vertex of smallest domain, candidates are tried in
    ascending order, and each assignment narrows the other domains by
    one AND.  A node is counted when a candidate is assigned, and the
    pinned vertex 0 is the first node.  Every vertex's domain starts as
    its constraints under vertex 0, ANDed with domains[a] when the
    per-vertex masks are given.

    visit(phi) is called at each complete assignment; the walk stops
    with FOUND when it returns true.  Returns (status, nodes, max_depth):
    INCONCLUSIVE when the node budget trips, EXHAUSTED when the tree runs
    out.
    """
    kappa, masks = tables(m)
    v = len(kappa)
    # cons[a ^ b][phi[b]] = the images vertex a may take given phi[b]
    cons = [masks[1 + sign * k] for k in kappa]
    phi = [0] + [None] * (v - 1)
    verts = list(range(1, v))
    doms = [cons[a][0] for a in verts]
    if domains is not None:
        doms = [d & domains[a] for a, d in zip(verts, doms)]
    nodes = max_depth = 1  # a node budget is >= 1, so the pin never trips it
    root = _min_domain_frame(verts, doms)
    stack = [root] if root else []
    while stack:
        frame = stack[-1]
        cand = frame[1]
        if not cand:
            stack.pop()
            continue
        bit = cand & -cand
        frame[1] = cand ^ bit
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return SearchStatus.INCONCLUSIVE, nodes, max_depth
        depth = 1 + len(stack)
        max_depth = max(max_depth, depth)
        x = frame[0]
        c = bit.bit_length() - 1
        phi[x] = c
        if depth == v:
            if visit(tuple(phi)):
                return SearchStatus.FOUND, nodes, max_depth
        else:
            rest, rest_doms = frame[2]
            child = _min_domain_frame(
                rest, [d & cons[a ^ x][c] for a, d in zip(rest, rest_doms)]
            )
            if child:
                stack.append(child)
    return SearchStatus.EXHAUSTED, nodes, max_depth


def _iter_assignments(kappa, masks, phi, unused, counters, sign):
    """Recursive depth-first generator over completed assignments in
    natural vertex order; counters is [nodes, max_depth]."""
    v = len(kappa)
    a = len(phi)
    if a == v:
        yield tuple(phi)
        return
    cand = unused
    for b in range(a):
        cand &= masks[1 + sign * kappa[a ^ b]][phi[b]]
        if not cand:
            return
    while cand:
        bit = cand & -cand
        cand ^= bit
        counters[0] += 1
        counters[1] = max(counters[1], a + 1)
        phi.append(bit.bit_length() - 1)
        yield from _iter_assignments(kappa, masks, phi, unused ^ bit, counters, sign)
        phi.pop()


def natural_search(m, sign=-1):
    """Generator over the maps fixing 0 with kappa[phi[a] ^ phi[b]] =
    sign * kappa[a ^ b] for all a, b, in lexicographic order, and the
    [nodes, max_depth] counters it updates as it goes."""
    kappa = build_delta(m).kappa
    v = len(kappa)
    masks = [[0] * v for _ in range(3)]
    for y in range(v):
        for x in range(v):
            masks[kappa[x ^ y] + 1][y] |= 1 << x
    counters = [1, 1]
    gen = _iter_assignments(kappa, masks, [0], ((1 << v) - 1) ^ 1, counters, sign)
    return gen, counters


def coset_spikes(kappa):
    """The coset blocks of a difference graph read off kappa the long way.

    D is the ascending list of zeros of kappa and reps[i] puts bit k of i
    at bit 2k.  For each i > 0 the butterfly above transforms kappa on
    reps[i] ^ D[x], x = 0, 1, ..., and must show a single spike of height
    2^m, whose position is ell[i] and whose sign is signs[i] (ell[0] =
    signs[0] = 0).  Returns (reps, D, ell, signs); ValueError if D does
    not have 2^m elements or a coset has no single spike.
    """
    m = (len(kappa).bit_length() - 1) // 2
    r = 1 << m
    zeros = [y for y, k in enumerate(kappa) if k == 0]
    if len(zeros) != r:
        raise ValueError(f"kappa has {len(zeros)} zeros, not 2^m")
    reps = [sum(((i >> k) & 1) << (2 * k) for k in range(m)) for i in range(r)]
    ell, signs = [0] * r, [0] * r
    for i in range(1, r):
        spectrum = fwht([kappa[reps[i] ^ d] for d in zeros])
        spikes = [u for u, w in enumerate(spectrum) if w]
        if len(spikes) != 1 or abs(spectrum[spikes[0]]) != r:
            raise ValueError(f"kappa on the coset {reps[i]} + D has no single spike")
        ell[i] = spikes[0]
        signs[i] = 1 if spectrum[spikes[0]] > 0 else -1
    return reps, zeros, ell, signs

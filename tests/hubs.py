"""Builder for hub-shaped test graphs.

A hub is a center vertex surrounded by a ring, with each corner between
consecutive ring vertices realized as a triangle (direct edge) or as a larger
face (a path of gadget vertices). Extra primitives attach triangles outside
existing edges (doubling them), add chords, and pad vertices with pendants to
hit exact degrees. Every fixture built from this asserts its own structural
intent, so a wrong rotation fails loudly at construction time.
"""

from __future__ import annotations

from planecolor.embedding import EmbeddedGraph

from conftest import euler_characteristic


class Hub:
    def __init__(self, corners: str):
        """corners: one char per corner, '3' (triangle), '4', '5', '6' (face sizes)."""
        d = len(corners)
        self.degree = d
        self.center = 0
        self.ring = list(range(1, d + 1))
        self._next = d + 1
        self.rot: dict[int, list[int]] = {0: list(self.ring)}
        self.chains: dict[int, list[int]] = {}
        for j, spec in enumerate(corners):
            k = int(spec) - 3
            self.chains[j] = [self._fresh() for _ in range(k)]
        for j in range(d):
            a = self.ring[j]
            left_chain = self.chains[(j - 1) % d]
            right_chain = self.chains[j]
            left = left_chain[-1] if left_chain else self.ring[(j - 1) % d]
            right = right_chain[0] if right_chain else self.ring[(j + 1) % d]
            self.rot[a] = [0, left, right]
        for j in range(d):
            chain = self.chains[j]
            a, b = self.ring[j], self.ring[(j + 1) % d]
            for i, gadget in enumerate(chain):
                prev = chain[i - 1] if i > 0 else a
                nxt = chain[i + 1] if i + 1 < len(chain) else b
                self.rot[gadget] = [prev, nxt]

    def _fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    def attach_triangle(self, a: int, b: int) -> int:
        """New vertex adjacent to a and b, drawn on the (a -> b) dart's side."""
        t = self._fresh()
        ra, rb = self.rot[a], self.rot[b]
        ra.insert(ra.index(b), t)
        rb.insert(rb.index(a) + 1, t)
        self.rot[t] = [a, b]
        return t

    def double_fan(self, j: int) -> int:
        """Double the ring edge of triangle corner j with an outside triangle."""
        assert not self.chains[j], "corner has no direct ring edge"
        return self.attach_triangle(self.ring[j], self.ring[(j + 1) % self.degree])

    def _face_size(self, a: int, b: int) -> int:
        """Darts on the face of dart (a, b): after (u, w) comes w's next dart after u."""
        n, (u, w) = 1, (b, self._after(b, a))
        while (u, w) != (a, b):
            n, (u, w) = n + 1, (w, self._after(w, u))
        return n

    def _after(self, w: int, u: int) -> int:
        ns = self.rot[w]
        return ns[(ns.index(u) + 1) % len(ns)]

    def pendant(self, v: int) -> int:
        """Attach a degree-1 vertex inside v's largest incident face: corner i,
        between rot[v][i] and rot[v][i + 1], holds the dart (v, rot[v][i + 1])."""
        ns = self.rot[v]
        i = max(range(len(ns)), key=lambda i: self._face_size(v, ns[(i + 1) % len(ns)]))
        p = self._fresh()
        ns.insert(i + 1, p)
        self.rot[p] = [v]
        return p

    def pad_to(self, v: int, target: int) -> None:
        assert len(self.rot[v]) <= target, (v, len(self.rot[v]), target)
        while len(self.rot[v]) < target:
            self.pendant(v)

    def pad_ring(self, targets) -> None:
        """Pad ring vertices to the given degrees (one per ring position)."""
        for v, t in zip(self.ring, targets):
            self.pad_to(v, t)

    def graph(self, chords=()) -> EmbeddedGraph:
        g = EmbeddedGraph(self.rot)
        for a, b in chords:
            face = g.face_of_dart(self._chord_dart(g, a, b))
            g = g.add_chords(face, [(a, b)])
        self._check(g)
        return g

    def _chord_dart(self, g, a, b):
        # Any dart whose face carries both endpoints.
        for u in g.neighbors(a):
            f = g.face_of_dart((a, u))
            if b in f.vertices():
                return (a, u)
        raise AssertionError(f"no common face for chord {(a, b)}")

    def _check(self, g: EmbeddedGraph) -> None:
        assert euler_characteristic(g) == 2, "hub is not a plane graph"
        assert len(g.connected_components()) <= 1


def hub_with(corners: str, ring_degrees=None, doubled=(), chords=()):
    """One-call builder: corner spec, exact ring degrees, doubled corners."""
    h = Hub(corners)
    for j in doubled:
        h.double_fan(j)
    if ring_degrees is not None:
        h.pad_ring(ring_degrees)
    return h, h.graph(chords)

"""Reference answers from closed forms and from the construction of the
inputs; never from the library being measured.

Uniserial conventions are those of `inputs.py`: over a Nakayama-type
family (linear A_n, cyclic Nakayama with Loewy length m >= n vertices,
and K[x]/(x^m) as the one-vertex case) U(i, l) has top i, length l, and
composition factors i, i+1, ..., i+l-1.  The cyclic families used here
are self-injective; linear A_n is hereditary.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from inputs import Family


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def classify_expectation(fam: Family):
    """(indecomposables, support tau-tilting pairs, CM-tau-tilting free).

    Linear A_n: n(n+1)/2 intervals, Catalan(n+1) pairs, hereditary so
    GP = projective.  K[x]/(x^n): n uniserials, 2 pairs, tau-rigid =
    projective.  Self-injective cyclic Nakayama (n, m), m >= n: n*m
    uniserials and C(2n, n) pairs (Adachi); its simples are GP and
    tau-rigid but not projective.  Loop-flag: 7 and 6, CM-tau-tilting free.
    Opposite algebras share every count."""
    if fam.kind == "linear":
        return fam.n * (fam.n + 1) // 2, catalan(fam.n + 1), True
    if fam.kind == "cyclic" and fam.n == 1:
        return fam.m, 2, True
    if fam.kind == "cyclic":
        if fam.m < fam.n:
            raise ValueError("pair count known in closed form only for m >= n")
        return fam.n * fam.m, comb(2 * fam.n, fam.n), False
    return 7, 6, True


class Uniserials:
    """Closed forms on direct sums of uniserials of one Nakayama-type family."""

    def __init__(self, fam: Family):
        if fam.kind not in ("linear", "cyclic") or fam.opposite:
            raise ValueError("closed forms need a canonical Nakayama-type family")
        self.fam = fam
        self.cyclic = fam.kind == "cyclic"
        self.n = max(1, fam.n)
        self.m = fam.m if self.cyclic else fam.n

    def is_projective(self, u):
        i, l = u
        return l == self.m if self.cyclic else i + l == self.n

    def _tops(self, i, l, j, k):
        """Lengths t of a nonzero map U(i,l) -> U(j,k) with image of length
        t: a quotient of the source that is a submodule of the target."""
        out = []
        for t in range(1, min(l, k) + 1):
            # the length-t submodule of U(j, k) has top j + k - t
            if self.cyclic:
                if (j + k - t - i) % self.n == 0:
                    out.append(t)
            elif j + k - t == i:
                out.append(t)
        return out

    def hom(self, u, v):
        return len(self._tops(*u, *v))

    def stable_hom(self, u, v):
        """Maps modulo those through projectives (self-injective case): the
        map with image length t lifts to the projective cover U(j, m) of
        the target iff t + m - k <= l."""
        (i, l), (j, k) = u, v
        return sum(1 for t in self._tops(i, l, j, k) if t + self.m - k > l)

    def tau(self, u):
        i, l = u
        if self.is_projective(u):
            return None
        return ((i + 1) % self.n if self.cyclic else i + 1, l)

    def omega(self, u):
        i, l = u
        if self.is_projective(u):
            return None
        if not self.cyclic:
            raise ValueError("syzygies used for the self-injective families only")
        return ((i + l) % self.n, self.m - l)

    def dims(self, u):
        i, l = u
        d = [0] * self.n
        for k in range(l):
            d[(i + k) % self.n if self.cyclic else i + k] += 1
        return d

    # -- on direct sums (lists of summands) --

    def hom_sum(self, xs, ys):
        return sum(self.hom(x, y) for x in xs for y in ys)

    def tau_dims(self, xs):
        d = [0] * self.n
        for x in xs:
            t = self.tau(x)
            if t is not None:
                d = [a + b for a, b in zip(d, self.dims(t))]
        return d

    def tau_rigid(self, xs):
        taus = [self.tau(y) for y in xs]
        return all(self.hom(x, t) == 0 for x in xs for t in taus if t is not None)

    def ext(self, xs, ys, i):
        """dim Ext^i.  Hereditary A_n: Ext^1(X, Y) = D Hom(Y, tau X) and
        Ext^2 = 0.  Self-injective: Ext^i(X, Y) = stable Hom(Omega^i X, Y)."""
        total = 0
        for x in xs:
            if not self.cyclic:
                if i == 1:
                    t = self.tau(x)
                    total += sum(self.hom(y, t) for y in ys) if t else 0
                continue
            w = x
            for _ in range(i):
                w = self.omega(w) if w is not None else None
            if w is not None:
                total += sum(self.stable_hom(w, y) for y in ys)
        return total

    def proj_dim(self, xs):
        """Finite projective dimension, or None for infinite."""
        if all(self.is_projective(x) for x in xs):
            return 0
        return None if self.cyclic else 1

    def gorenstein_projective(self, xs):
        return self.cyclic or all(self.is_projective(x) for x in xs)

    @staticmethod
    def isomorphic(xs, ys):
        return Counter(xs) == Counter(ys)

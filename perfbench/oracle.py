"""Known answers computed by the harness alone, with plain Python integers.

The ghost map w_i = sum_j pi^j x_j^(q^(i-j)) is a ring homomorphism over
any base, so a Witt-vector result can be checked through ghost components
computed here, without calling the program's own ghost code.
"""

from __future__ import annotations


class IntegerBase:
    """Z/M (M = 0 for Z itself) with pi = p."""

    zero = 0

    def __init__(self, p, modulus=0):
        self.p = p
        self.m = modulus

    def red(self, a):
        return a % self.m if self.m else a

    def mul(self, a, b):
        return self.red(a * b)

    def add(self, a, b):
        return self.red(a + b)

    def pi_pow(self, j):
        return self.red(self.p ** j)

    def power(self, a, e):
        return pow(a, e, self.m) if self.m else a ** e

    def from_coeff(self, coeff):
        return self.red(coeff[0])

    def eq(self, a, b):
        return self.red(a - b) == 0


class QuadraticBase:
    """Z[pi]/(pi^2 - D), reduced coefficientwise mod M (pi^(2k) = D^k, so
    pi^N Z[pi] is M Z[pi] with M = D^(N/2) for even N)."""

    zero = (0, 0)

    def __init__(self, p, d, modulus):
        self.p = p
        self.d = d
        self.m = modulus

    def red(self, a):
        return (a[0] % self.m, a[1] % self.m)

    def mul(self, a, b):
        return self.red((a[0] * b[0] + self.d * a[1] * b[1],
                         a[0] * b[1] + a[1] * b[0]))

    def add(self, a, b):
        return self.red((a[0] + b[0], a[1] + b[1]))

    def pi_pow(self, j):
        return self.power((0, 1), j)

    def power(self, a, e):
        result, base = (1, 0), self.red(a)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def from_coeff(self, coeff):
        return self.red(tuple(coeff))

    def eq(self, a, b):
        return self.red(a) == self.red(b)


def ghost(base, comps):
    """Ghost components of the Witt vector ``comps`` over ``base``."""
    q = base.p
    out = []
    for i in range(len(comps)):
        acc = base.zero
        for j in range(i + 1):
            acc = base.add(acc, base.mul(base.pi_pow(j),
                                         base.power(comps[j], q ** (i - j))))
        out.append(acc)
    return out


def same(base, xs, ys):
    return len(xs) == len(ys) and all(base.eq(a, b) for a, b in zip(xs, ys))


def evaluate(poly, values):
    """Value of a wittlab polynomial over Z at integer ``values`` (a dict
    from variable name to int)."""
    point = [values[name] for name in poly.cfg.vars]
    total = 0
    for mono, coeff in poly.terms.items():
        term = coeff[0]
        for x, e in zip(point, mono):
            if e:
                term *= x ** e
        total += term
    return total


def universal_ok(op, n, p, polys, values):
    """Check universal polynomials through the ghost identity at one integer
    point: ghost(sum) = ghost(x) + ghost(y), ghost(prod) = ghost(x) ghost(y),
    ghost(F x)_i = ghost(x)_(i+1), ghost((pi) x)_i = p ghost(x)_i."""
    base = IntegerBase(p)
    xs = [values[f"x{i}"] for i in range(n + 1)]
    gx = ghost(base, xs)
    got = ghost(base, [evaluate(f, values) for f in polys])
    if op == "sum" or op == "prod":
        gy = ghost(base, [values[f"y{i}"] for i in range(n + 1)])
        want = [a + b if op == "sum" else a * b for a, b in zip(gx, gy)]
    elif op == "frobenius":
        want = gx[1:]
    else:
        want = [p * a for a in gx]
    return got == want

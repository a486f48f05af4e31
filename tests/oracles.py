"""Reference paths that only the tests call: polynomial evaluation, the
coordinate path of E_[m], the integrality of and arithmetic on logarithm
fractions, and the Hermite-normal-form reduction mod pi^N.

The library computes these maps on ghost rows; the cross-checks compare
it with the definitions kept here.
"""

from wittlab.errors import (InternalError, NonDivisible, WittlabError,
                             ZeroShift)
from wittlab.rings import Frac
from wittlab.shifted import ShiftedWittVector
from wittlab.witt import universal_polynomials


def to_int(elem):
    """The integer that a constant element of a degree-1 config is."""
    if elem.cfg.d != 1 or not elem.is_constant():
        raise WittlabError(f"{elem!r} is not an integer constant")
    return elem.const_coeff()[0]


def total_degree(poly):
    """The largest total degree of a monomial of poly (0 for zero)."""
    return max((sum(m) for m in poly.terms), default=0)


def substitute(poly, values, target_cfg=None):
    """Evaluate poly at ``values`` (a name -> element mapping).

    Unmapped variables must exist in the target config and are kept.
    """
    cfg = poly.cfg
    if target_cfg is None:
        sample = next(iter(values.values()), None)
        target_cfg = sample.cfg if sample is not None else cfg
    images = []
    for name in cfg.vars:
        if name in values:
            images.append(target_cfg.convert(values[name])
                          if values[name].cfg is not target_cfg
                          else values[name])
        else:
            images.append(target_cfg.var(name))
    result = target_cfg.zero()
    pow_cache = [dict() for _ in images]
    for mono, coeff in poly.terms.items():
        term = target_cfg.from_coeff(coeff)
        for i, e in enumerate(mono):
            if e:
                cached = pow_cache[i].get(e)
                if cached is None:
                    cached = images[i] ** e
                    pow_cache[i][e] = cached
                term = term * cached
        result = result + term
    return result


def frac_is_integral(frac):
    try:
        frac.num.div_int(frac.den)
    except NonDivisible:
        return False
    return True


def frac_as_element(frac):
    return frac.num.div_int(frac.den)


def frac_add(a, b):
    return Frac(a.num * b.den + b.num * a.den, a.den * b.den)


def frac_sub(a, b):
    return frac_add(a, Frac(-b.num, b.den))


def frac_mul(a, b):
    return Frac(a.num * b.num, a.den * b.den)


def shift_E_coords(v):
    """shift_E by evaluating the cached Frobenius polynomials on the
    coordinates."""
    if v.m < 1:
        raise ZeroShift("shift needs m >= 1")
    length = v.m + v.n
    polys = universal_polynomials("frobenius", length, cfg=v.rcfg)
    # F_i only involves x_0..x_{i+1}, so zero-filling the rest is harmless
    head_vals = {f"x{i}": v.head[i] if i <= v.m else v.rcfg.zero()
                 for i in range(length + 1)}
    head = [substitute(polys[i], head_vals, v.rcfg) for i in range(v.m)]
    full = [v.f(r) for r in v.head] + list(v.tail)
    full_vals = {f"x{i}": full[i] for i in range(length + 1)}
    tail = [substitute(polys[i], full_vals, v.bcfg)
            for i in range(v.m, length)]
    return ShiftedWittVector(v.rcfg, v.bcfg, v.m - 1, head, tail)


def pi_power_hnf(cfg, n):
    """Triangular basis of the lattice pi^n * R inside Z^d, by integer row
    reduction of the power-basis vectors of pi^n, ..., pi^(n+d-1); cfg is
    the exact order."""
    d = cfg.d
    pi = cfg._pi_coeff()
    mat = [list(cfg.cpow(pi, n + i)) for i in range(d)]
    for col in range(d):
        while True:
            nz = [i for i in range(col, d) if mat[i][col] != 0]
            if not nz:
                raise InternalError("pi^N lattice is not full rank")
            if len(nz) == 1:
                break
            nz.sort(key=lambda i: abs(mat[i][col]))
            base = nz[0]
            for i in nz[1:]:
                qq = mat[i][col] // mat[base][col]
                mat[i] = [x - qq * y for x, y in zip(mat[i], mat[base])]
        base = nz[0]
        mat[col], mat[base] = mat[base], mat[col]
        if mat[col][col] < 0:
            mat[col] = [-x for x in mat[col]]
        for i in range(col):
            qq = mat[i][col] // mat[col][col]
            if qq:
                mat[i] = [x - qq * y for x, y in zip(mat[i], mat[col])]
    return [tuple(r) for r in mat]


def hnf_reduce(hnf, a):
    """The canonical residue of the coefficient tuple a modulo the lattice
    with triangular basis hnf."""
    v = list(a)
    for i, row in enumerate(hnf):
        qq = v[i] // row[i]
        if qq:
            v = [x - qq * y for x, y in zip(v, row)]
    return tuple(v)

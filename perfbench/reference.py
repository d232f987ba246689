"""Pohlig-Hellman + baby-step giant-step discrete logs, the baseline that
index calculus has to beat (Pohlig & Hellman 1978; Shanks' BSGS).

It needs no factor base and no log table: the cost is a few exponentiations
per prime power of N = p^d - 1 and about sqrt(l) multiplications for the
largest prime l dividing N.
"""

from math import isqrt


def _bsgs(ring, gamma, target, ell):
    """x in [0, ell) with gamma^x = target, where gamma has prime order ell."""
    m = isqrt(ell - 1) + 1
    baby = {}
    acc = ring.one()
    for j in range(m):
        baby.setdefault(acc, j)
        acc = ring.mul(acc, gamma)
    giant = ring.pow(gamma, ell - m)  # gamma^(-m)
    cur = target
    for i in range(m + 1):
        j = baby.get(cur)
        if j is not None:
            return (i * m + j) % ell
        cur = ring.mul(cur, giant)
    raise ValueError("target is not in the subgroup")


def ph_bsgs_log(ring, g, z, N, factors):
    """log_g(z) mod N for a generator g of the order-N group, given
    factors = {prime: multiplicity} of N."""
    x, mod = 0, 1
    for ell, k in sorted(factors.items()):
        gamma = ring.pow(g, N // ell)
        digits = 0
        for i in range(k):
            # strip the digits found so far, then project to order ell
            shifted = ring.mul(z, ring.pow(g, (N - digits) % N))
            d = _bsgs(ring, gamma, ring.pow(shifted, N // ell ** (i + 1)), ell)
            digits += d * ell ** i
        q = ell ** k
        # CRT: x = x mod `mod`, x = digits mod q
        t = (digits - x) * pow(mod, -1, q) % q
        x += mod * t
        mod *= q
    return x % N

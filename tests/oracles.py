"""Independent oracles the tests check the library against.

Nothing in the package imports this module; it searches directly for
what the library constructs, so a disagreement points at a fault in
one of the two.
"""

from mvdelta.carriers import Carrier
from mvdelta.rationals import Q01
from mvdelta.spectrum import Hom, _hom_sort_key, _verify_hom


def brute_force_homs(carrier: Carrier) -> list[Hom]:
    """Independent search for all homomorphisms into [0,1].

    The image of a finite carrier is a finite subalgebra of the unit
    interval, i.e. some chain {0, 1/m, ..., 1}; try every m and extend
    partial value tables with forced-value propagation.
    """
    elems = carrier.elements()
    n = len(elems)
    if n == 1:
        return []
    found: dict[tuple, Hom] = {}

    def propagate(table: dict, m: int) -> bool:
        changed = True
        while changed:
            changed = False
            for x in list(table):
                nx = carrier.neg(x)
                want = Q01(1 - table[x])
                if table.get(nx, want) != want:
                    return False
                if nx not in table:
                    table[nx] = want
                    changed = True
                for y in list(table):
                    z = carrier.oplus(x, y)
                    want = Q01(min(table[x] + table[y], 1))
                    if table.get(z, want) != want:
                        return False
                    if z not in table:
                        table[z] = want
                        changed = True
        return True

    def search(table: dict, m: int):
        missing = [x for x in elems if x not in table]
        if not missing:
            if _verify_hom(carrier, table):
                key = tuple(table[x] for x in elems)
                found.setdefault(key, Hom(carrier, dict(table)))
            return
        x = missing[0]
        for k in range(m + 1):
            trial = dict(table)
            trial[x] = Q01(k, m)
            if propagate(trial, m):
                search(trial, m)

    for m in range(1, n):
        base = {carrier.zero(): Q01(0)}
        if propagate(base, m):
            search(base, m)
    return sorted(found.values(), key=lambda h: _hom_sort_key(carrier, h))

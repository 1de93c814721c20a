"""
The Fibonacci family of unknotted twisted torus knots
=====================================================

K(F_{n+2}, F_n, F_{n+1}, -1) closes up to the unknot for every n.  The
braid words grow quickly (the n = 6 member has 316 crossings on 21
strands), but both polynomial invariants stay trivial.
"""

from ttklib import TTKParams, alexander, braid_for, fibonacci, jones
from ttklib.errors import BudgetError

for n in range(1, 7):
    p, q, r = fibonacci(n + 2), fibonacci(n), fibonacci(n + 1)
    params = TTKParams(p=p, q=q, r=r, twist_n=-1)
    word = braid_for(params)
    delta = alexander(word)
    try:
        v = str(jones(word))
    except BudgetError as exc:
        v = f"skipped ({exc.kind} budget: {exc.count})"
    print(f"{params.label():>18}  strands={word.strands:>2} "
          f"crossings={word.crossing_count:>3}  alexander={delta}  jones={v}")

# the smallest nontrivial-looking member, as an explicit braid word
print()
print("K(5,2,3,-1) braid:", braid_for(TTKParams(p=5, q=2, r=3, twist_n=-1)).to_text())

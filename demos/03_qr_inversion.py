"""Structured QR factorization and QR-based inversion.

A lower banded matrix factors as A = U R with U a product of small embedded
Householder blocks.  For two-sided banded input both the factorization and
the generator recursion work on O(r)-sized windows, so the whole inversion is
O(n r^2): doubling n roughly doubles the time.
"""

import time

import numpy as np

from greenband import (
    dense_invert,
    invert_two_sided_qr,
    qr_factor_lower_band,
    random_band,
    reconstruct_structured,
)

# --- the factorization, inspected densely at desk scale ---------------------
a = random_band(12, 3, 11, seed=4, diag_shift=1.0)
fact = qr_factor_lower_band(a)
u, r_mat = fact.u_dense(), fact.r_dense()
dense = a.to_dense()
print("||A - U R|| / ||A|| =", f"{np.linalg.norm(dense - u @ r_mat) / np.linalg.norm(dense):.2e}")
print("||U^T U - I||       =", f"{np.linalg.norm(u.T @ u - np.eye(12)):.2e}")
ustar = fact.inverse_product()
print("U^T is built from", len(ustar.factors), "blocks of shape", ustar.factors[0].shape,
      "and a trailing block of shape", ustar.last.shape)

# --- inversion and the right normal form ------------------------------------
n, r = 30, 3
a = random_band(n, r, r, seed=5, diag_shift=3.0)
gens = invert_two_sided_qr(a)
err = np.linalg.norm(
    reconstruct_structured(gens) - np.tril(dense_invert(a.to_dense()), r - 1)
) / np.linalg.norm(np.tril(dense_invert(a.to_dense()), r - 1))
print("\ncovered-part error vs dense inverse:", f"{err:.2e}")

worst = max(
    np.linalg.norm(gens.a[k] @ gens.a[k].T + np.outer(gens.q[k], gens.q[k]) - np.eye(r))
    for k in range(n - r)
)
print("right normal form a a^T + q q^T = I: max residual", f"{worst:.2e}")

# --- linear scaling ----------------------------------------------------------
print("\ntwo-sided inversion times (r = 5):")
for size in (500, 1000, 2000, 4000):
    m = random_band(size, 5, 5, seed=6, diag_shift=5.0)
    t0 = time.perf_counter()
    invert_two_sided_qr(m)
    print(f"  n = {size:5d}: {time.perf_counter() - t0:.3f} s")

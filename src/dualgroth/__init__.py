"""Exact-arithmetic kernel for the dual stable Grothendieck basis of the
ring of symmetric functions, with the perp-operator calculus built on it.
"""

from .partitions import (a_statistic, column_count, contains, interval,
                         partitions_of, partitions_up_to, size, subpartitions,
                         transpose)
from .tpoly import MultiPoly, TPoly, binomial_general
from .schur import (E_series, H_series, SymFunc, TensorElem, TruncSeries,
                    antipode, coproduct, e_gen, h_gen, hall, is_group_like,
                    lr_coeff, p_gen, phi_t, series_mul, to_polynomial,
                    truncate)
from .groth import (G_truncated, c_coeff, d_coeff, g_skew, g_to_schur,
                    rpp_generating_poly, schur_to_g)
from .operators import (E_perp, H_perp, IncidenceFn, apply_operator,
                        expand_skew_sum, inc_convolve, inc_delta, inc_it,
                        inc_jt, inc_mobius, inc_zeta, op_I, op_I_inv, perp,
                        skew_pieri, telescoping_X, tilde_c, tilde_d)

__version__ = "0.1.0"

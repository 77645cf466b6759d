"""Exact computations with rational Cherednik algebras at t = 0.

Everything is exact: arbitrary-precision rationals and cyclotomic numbers,
normal-form arithmetic from the defining commutation relation, restricted
quotients with their block partitions and distinguished representatives,
closed graded-character formulas for endomorphism rings of standard modules,
reduction to stabilizer pairs, and exterior-algebra models with their
odd differentials and homology.
"""

from .cyclotomic import Cyc, cyclotomic_polynomial, euler_phi
from .errors import (CapExceeded, CherednikError, CompositionMismatch,
                     DegreeCapExceeded, DimensionMismatch,
                     FieldExtensionNeeded, InvalidElement, InvalidInput,
                     MissingEis, NegativeExponentPresent, NotCommutative,
                     NotFactorizable, NotRegularDetected, NotSimpleHead,
                     SideMismatch, TieDetected, UnsupportedGroup,
                     ZeroPolynomial)
from .series import GradedCharacter, b_invariant
from .groups import (IrrRep, Reflection, ReflectionGroup, build_from_generators,
                     build_group, build_i2, build_sn, build_zm)
from .pbw import CherednikAlgebra, Parameter, PBWElement
from .restricted import (Block, BlockPartition, FDModule,
                         RestrictedCherednikAlgebra, StandardModules,
                         act_on_baby_verma, baby_verma, build_restricted,
                         distinguished_rep)
from .verma import (EisFactorization, dual_verma_pairing_expected,
                    endo_character, ext_character, hook_identity_check,
                    hook_polynomial, solve_eis, solve_eis_from_character,
                    tor_character, verma_character)
from .parabolic import (ReductionContext, make_context, reduced_endo_character,
                        verify_reduction_invariance)
from .bv import (CONORMAL, NORMAL, ExteriorElement, TruncatedPolyModel,
                 bv_delta, bv_delta_conormal, bv_delta_normal,
                 check_bracket_axioms, check_bv_seven_term,
                 gerstenhaber_bracket, koszul_homology, virtual_homology)

__version__ = "0.1.0"

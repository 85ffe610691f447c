"""Exact Dirac-cohomology toolkit for rational Cherednik and Drinfeld
graded Hecke algebras over small reflection groups."""

from .calogero_moser import (
    dirac_partition,
    omega_central_character,
    verify_cm_factorization,
)
from .dirac import dirac_element, verify_dirac_square, zeta
from .groups import CATALOGUE_IDS, build_group
from .modules import (
    baby_verma,
    dirac_cohomology,
    one_dimensional_quotient,
    standard_module,
    unitarity_report,
)
from .pbw import cherednik_family, gaha_family, pbw_check

__version__ = "0.1.0"

__all__ = [
    "CATALOGUE_IDS",
    "baby_verma",
    "build_group",
    "cherednik_family",
    "dirac_cohomology",
    "dirac_element",
    "dirac_partition",
    "gaha_family",
    "omega_central_character",
    "one_dimensional_quotient",
    "pbw_check",
    "standard_module",
    "unitarity_report",
    "verify_cm_factorization",
    "verify_dirac_square",
    "zeta",
]

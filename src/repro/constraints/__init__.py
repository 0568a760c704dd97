"""Integrity constraints, subsumption and residues."""

from .ic import (IntegrityConstraint, from_parsed, ic_from_text,
                 ics_from_text, validate_ics)
from .expansion import ExpandedIC, expand
from .residue import Residue
from .subsumption import (match_literal, partial_subsumptions,
                          rename_ic_apart, rule_residues, subsumptions)
from .free import (FreeSubsumption, extend_to_useful, free_subsumptions,
                   maximal_free_subsumptions)
from .checker import repair, satisfies, violations

__all__ = [
    "IntegrityConstraint", "from_parsed", "ic_from_text", "ics_from_text",
    "validate_ics",
    "ExpandedIC", "expand",
    "Residue",
    "match_literal", "partial_subsumptions", "rename_ic_apart",
    "rule_residues", "subsumptions",
    "FreeSubsumption", "extend_to_useful", "free_subsumptions",
    "maximal_free_subsumptions",
    "repair", "satisfies", "violations",
]

"""Workloads: paper fixtures and IC-consistent synthetic generators."""

from .paper_examples import (ALL_EXAMPLES, example_2_1, example_3_2,
                             example_4_1, example_4_3, example_5_1, load)
from .generators import (random_digraph, random_linear_program,
                         transitive_closure_program)
from .university import UniversityParams, generate_university
from .organization import OrganizationParams, generate_organization
from .genealogy import GenealogyParams, generate_genealogy

__all__ = [
    "ALL_EXAMPLES", "example_2_1", "example_3_2",
    "example_4_1", "example_4_3", "example_5_1", "load",
    "random_digraph", "random_linear_program",
    "transitive_closure_program",
    "UniversityParams", "generate_university",
    "OrganizationParams", "generate_organization",
    "GenealogyParams", "generate_genealogy",
]

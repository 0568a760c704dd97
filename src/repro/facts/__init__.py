"""EDB storage: indexed relations, databases, interning, CSV I/O."""

from .symbols import INTERNING_MODES, SymbolTable, validate_interning
from .relation import Relation, Row
from .database import Database
from .changelog import (AppliedChange, Changeset, VersionedDatabase,
                        random_changeset)
from .io import load_csv, load_directory, save_csv, save_directory

__all__ = ["INTERNING_MODES", "SymbolTable", "validate_interning",
           "Relation", "Row", "Database",
           "AppliedChange", "Changeset", "VersionedDatabase",
           "random_changeset",
           "load_csv", "load_directory", "save_csv", "save_directory"]

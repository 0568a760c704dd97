"""EDB storage: indexed relations, databases, interning, CSV I/O."""

from .symbols import INTERNING_MODES, SymbolTable, validate_interning
from .backend import DictBackend
from .relation import Relation, Row
from .database import Database
from .changelog import (AppliedChange, Changeset, VersionedDatabase,
                        random_changeset)
from .io import load_csv, load_directory, save_csv, save_directory

__all__ = ["INTERNING_MODES", "SymbolTable", "validate_interning",
           "DictBackend",
           "Relation", "Row", "Database",
           "AppliedChange", "Changeset", "VersionedDatabase",
           "random_changeset",
           "load_csv", "load_directory", "save_csv", "save_directory"]

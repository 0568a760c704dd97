"""EDB storage: indexed relations, databases, interning, CSV I/O."""

from .symbols import SymbolTable, validate_interning
from .relation import Relation, Row
from .database import Database
from .changelog import Changeset, VersionedDatabase
from .io import load_csv, load_directory, save_csv, save_directory

__all__ = ["SymbolTable", "validate_interning",
           "Relation", "Row", "Database",
           "Changeset", "VersionedDatabase",
           "load_csv", "load_directory", "save_csv", "save_directory"]

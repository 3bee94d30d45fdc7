"""Front end: entry-expression parser, file formats, and the CLI."""

from .parser import EntryExpr, parse_entry

__all__ = ["EntryExpr", "parse_entry"]

"""Auditable SQL-grounded diagnostic reasoning over multi-scale feature tables."""

__version__ = "0.1.0"

"""Layered benchmark for the Xheal reproduction (see ``README.md`` here)."""

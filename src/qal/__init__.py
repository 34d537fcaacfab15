"""Quantum-accelerated agnostic learning over finite hypothesis classes."""

__version__ = "0.1.0"

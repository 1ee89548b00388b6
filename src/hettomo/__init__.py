"""Heterodyne measurement simulation and moment-based state tomography."""

__version__ = "0.1.0"

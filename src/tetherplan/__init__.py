"""Dual-arm regrasp planning for balancer-suspended tethered tools."""

__version__ = "0.1.0"

"""Forecast imminent loss-of-signal on optical-network ports from daily
performance-monitoring telemetry."""

__version__ = "0.1.0"

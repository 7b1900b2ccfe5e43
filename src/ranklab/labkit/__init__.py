"""Verification experiments, instance/report file formats, and the CLI."""

from .experiments import ExperimentReport, PROPERTIES, verify
from .io import read_instance, write_instance, report_text, report_json

__all__ = [
    "ExperimentReport",
    "PROPERTIES",
    "verify",
    "read_instance",
    "write_instance",
    "report_text",
    "report_json",
]

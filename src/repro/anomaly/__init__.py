"""Anomaly detection and dual-level diagnosis.

The paper's key idea is to monitor **both** controller-level and process-level
data with MSPC: detection works on either view, and comparing the oMEDA
diagnoses of the two views makes it possible to tell process disturbances from
integrity attacks — the two views agree under a disturbance and diverge under
an attack.  This package provides the dual-level analyzer implementing that
comparison; :mod:`repro.live` runs the same detection sample by sample.
"""

from repro.anomaly.diagnosis import (
    DualLevelAnalyzer,
    DualLevelDiagnosis,
    DiagnosisSummary,
    AnomalyClass,
    omeda_similarity,
    view_divergence,
)

__all__ = [
    "DualLevelAnalyzer",
    "DualLevelDiagnosis",
    "DiagnosisSummary",
    "AnomalyClass",
    "omeda_similarity",
    "view_divergence",
]

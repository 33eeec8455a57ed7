"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture(scope="session")
def trained_models():
    """One `trained` dict (see `pipeline.run_pipeline`) for the pipeline-level
    tests of a session.

    The desk benchmark, criteria 6 and 7 and the sampling-mode sweep train the
    same target, shadow, reference and scoring models of master seeds 1..5
    again and again; passing them this dict trains each distinct model once,
    without changing any result. Criterion 8 and the CLI tests do not take it, so
    byte-identical reruns are still checked by real retraining.
    """
    return {}

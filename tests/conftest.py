import contextlib
import warnings
from pathlib import Path

import pytest

from causalstruct import load_bbn, load_system

DATA = Path(__file__).parent / "data"

# Hypothesis imports this module to write a patch only once a generated
# example fails, and importing it makes libcst raise a DeprecationWarning
# (mypy_extensions.TypedDict) that filterwarnings = ["error"] turns into an
# INTERNALERROR ending the session.  Importing it here, with warnings
# silenced for this import alone, lets a failing property report as a
# failure; Hypothesis itself skips the patch when the module cannot load.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def model3():
    """Three-equation chain: d exogenous, d drives a, a drives m."""
    return load_system(DATA / "drunk_driving.json")


@pytest.fixture(scope="session")
def model4():
    """Algebraically equivalent to model3 but with a merged first row."""
    return load_system(DATA / "nonstructural.json")


@pytest.fixture(scope="session")
def model5():
    """model3 extended with an exogenous belt-usage variable feeding m."""
    return load_system(DATA / "seat_belts.json")


@pytest.fixture(scope="session")
def feedback2():
    """Two equations both mentioning both variables."""
    return load_system(DATA / "feedback.json")


@pytest.fixture(scope="session")
def xy_bbn():
    """Two-node network: P(x=t)=0.4, P(y=t|x=t)=0.7, P(y=t|x=f)=0.2."""
    return load_bbn(DATA / "xy.json")

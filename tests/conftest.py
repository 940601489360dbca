import math

import numpy as np
import pytest
from hypothesis import strategies as st


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


def random_stokes(rng, max_norm=1.0):
    """Uniform direction, radius uniform in (0, max_norm)."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, max_norm)


def random_pure_stokes(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def haar_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def haar_unitary(rng, n=2):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, scale=1.0):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return scale * (z + z.conj().T) / 2.0


# Hypothesis strategies shared by the oracle-agreement properties.

# theta0 + theta1 at which the relative rotation is the identity, a quarter,
# half or full marking turn
SPECIAL_ANGLE_SUMS_DEG = (0.0, 22.5, 45.0, 90.0)


def _nudge(x: float, ulps: int) -> float:
    """`x` moved by `ulps` units in the last place (down when negative)."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@st.composite
def wave_plate_angles(draw):
    """(theta0, theta1) in degrees: uniform, or with theta0 + theta1 a few
    ulps off 0, 22.5, 45 or 90."""
    theta0 = draw(st.floats(-90.0, 90.0))
    if draw(st.booleans()):
        return theta0, draw(st.floats(-90.0, 90.0))
    target = draw(st.sampled_from(SPECIAL_ANGLE_SUMS_DEG))
    return theta0, _nudge(target - theta0, draw(st.integers(-3, 3)))


# no subnormals: their few bits of precision would leave a normalized vector
# far off unit length
_COMPONENTS = st.one_of(st.sampled_from((0.0, -0.0)),
                        st.floats(-1.0, 1.0, allow_subnormal=False))
_RADII = st.one_of(st.sampled_from((0.0, 1.0 - 1e-12, 1.0)), st.floats(0.0, 1.0))


@st.composite
def stokes_vectors(draw, pure=False):
    """Stokes vectors: the origin, the s2 axis and the other axes (with
    signed zeros kept), pure states, |s| = 1 - 1e-12 and the open ball."""
    v = np.array([draw(_COMPONENTS) for _ in range(3)])
    norm = math.hypot(*v)  # no underflow of the squares
    if norm == 0.0:
        if pure:  # an axis state with the drawn signs of zero elsewhere
            v[draw(st.integers(0, 2))] = draw(st.sampled_from((1.0, -1.0)))
        return v
    return v / norm * (1.0 if pure else draw(_RADII))


# arm-0 phases (radians), far beyond one turn
phases = st.floats(-1e6, 1e6)
# the cross-term scale kappa, visibility_scale of the model
visibility_scales = st.floats(0.0, 1.0, exclude_min=True)

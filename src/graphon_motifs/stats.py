"""Standardization, empirical moments, and normal goodness of fit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# fewest samples ks_test accepts
KS_MIN_SAMPLES = 50


@dataclass(frozen=True)
class NormalityReport:
    sample_size: int
    ks_statistic: float
    mean: float
    sd: float
    skewness: float


def standardize(samples, center: float, scale: float) -> np.ndarray:
    if scale <= 0:
        raise ValueError("scale must be positive")
    return (np.asarray(samples, dtype=np.float64) - center) / scale


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the C library complementary error function
    (double precision, absolute error well below 1e-10)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_cdf_array(x: np.ndarray) -> np.ndarray:
    return np.array([normal_cdf(float(v)) for v in x])


def sample_skewness(samples) -> float:
    x = np.asarray(samples, dtype=np.float64)
    m2 = float(np.mean((x - x.mean()) ** 2))
    if m2 == 0.0:
        return 0.0
    m3 = float(np.mean((x - x.mean()) ** 3))
    return m3 / m2 ** 1.5


def ks_test(samples) -> NormalityReport:
    """One-sample Kolmogorov-Smirnov distance to the standard normal.

    The supremum over the empirical CDF's jump points is exact:
    max over sorted x_(i) of max(i/n - Phi(x_(i)), Phi(x_(i)) - (i-1)/n).
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS test needs at least {KS_MIN_SAMPLES} samples")
    cdf = _normal_cdf_array(x)
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1.0) / n)
    d = float(max(d_plus, d_minus))
    return NormalityReport(sample_size=n, ks_statistic=d,
                           mean=float(x.mean()),
                           sd=float(x.std(ddof=1)) if n > 1 else 0.0,
                           skewness=sample_skewness(x))


def variance_shares(v1: float, v2: float) -> tuple:
    """(r1, r2) = (v1, v2) / (v1 + v2) for a positive total, with
    r2 = 1 - r1 so that r1 + r2 = 1 exactly."""
    r1 = v1 / (v1 + v2)
    return r1, 1.0 - r1


def covariance_and_se(a, b) -> tuple:
    """Sample covariance with a moment-based standard error estimate."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    n = x.size
    dx = x - x.mean()
    dy = y - y.mean()
    cov = float(np.sum(dx * dy) / (n - 1))
    m22 = float(np.mean(dx * dx * dy * dy))
    se = math.sqrt(max(m22 - cov * cov, 0.0) / n)
    return cov, se


def mean_and_se(a) -> tuple:
    x = np.asarray(a, dtype=np.float64)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


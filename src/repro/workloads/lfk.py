"""The ten Livermore Fortran Kernels of the paper's case study.

The paper evaluates MACS on LFK 1, 2, 3, 4, 6, 7, 8, 9, 10 and 12
("ten of the first twelve kernels").  Each :class:`KernelSpec` bundles

* the mini-Fortran source (adapted from McMahon's originals, with the
  standard loop sizes: n=1001 for the long 1-D loops, 101 for LFK2/9/10,
  64 for LFK6, 100 for LFK8);
* deterministic input data generators;
* a NumPy reference implementation for functional verification;
* the paper's analytic MA workload (``f_a``, ``f_m``, perfect-reuse
  loads and stores per source iteration) used to validate the model's
  own counting;
* the number of *inner-loop* source iterations, which normalizes
  simulator cycles to the paper's CPL/CPF units.

Layout notes (documented substitutions):

* LFK6's ``B`` is dimensioned ``B(65,64)`` — the classic one-row pad
  that keeps the stride-over-``k`` access (65 words) off the 32-bank
  resonance; an unpadded 64-word stride would serialize one bank and
  swamp the effect the paper attributes to short vectors.
* LFK2 and LFK6 carry ``ivdep=True`` (the ``CDIR$ IVDEP`` directive of
  the originals); their semantics are the whole-vector
  reads-before-writes semantics the directive licenses.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True)
class MAWorkload:
    """Paper Table 2 row: the idealized per-iteration operation counts."""

    f_add: int  # additions/subtractions (add pipe)
    f_mul: int  # multiplications/divisions (multiply pipe)
    loads: int  # memory loads with perfect index-analysis reuse
    stores: int

    @property
    def flops(self) -> int:
        return self.f_add + self.f_mul

    @property
    def memory_ops(self) -> int:
        return self.loads + self.stores


def _pattern(size: int, seed: int) -> np.ndarray:
    """Deterministic, nonzero, O(1)-magnitude input data."""
    indices = np.arange(size, dtype=np.float64)
    return 0.1 + 0.001 * ((seed * 7 + 3) * indices % 101)


@dataclass(frozen=True)
class KernelSpec:
    """One Livermore kernel as used in the case study."""

    number: int
    name: str
    title: str
    source: str
    ivdep: bool
    flops_per_iteration: int
    inner_iterations: int
    ma: MAWorkload
    scalar_inputs: dict[str, float]
    array_seeds: dict[str, int]
    reference: Callable[[dict[str, np.ndarray], dict[str, float]], dict]
    output_arrays: tuple[str, ...] = ()
    output_scalars: tuple[str, ...] = ()
    notes: str = ""
    #: trip count of each inner-loop *entry* (one element per time the
    #: vectorized loop is entered); sums to ``inner_iterations``.  Used
    #: by the short-vector extended-MACS bound.
    trip_profile: tuple[int, ...] = ()

    def make_data(self, shapes: dict[str, int]) -> dict[str, np.ndarray]:
        """Input arrays, sized from the compiled kernel's layout."""
        data = {}
        for array_name, seed in self.array_seeds.items():
            try:
                size = shapes[array_name]
            except KeyError:
                raise WorkloadError(
                    f"{self.name}: array {array_name!r} not in layout"
                ) from None
            data[array_name] = _pattern(size, seed)
        return data

    @property
    def total_flops(self) -> int:
        return self.flops_per_iteration * self.inner_iterations


# ----------------------------------------------------------------------
# LFK 1 — hydrodynamics fragment
# ----------------------------------------------------------------------

_LFK1_SOURCE = """
      DIMENSION X(1001), Y(1001), ZX(1023)
      DO 1 k = 1,n
    1 X(k) = Q + Y(k)*(R*ZX(k+10) + T*ZX(k+11))
"""


def _lfk1_reference(data, scalars):
    n = int(scalars["n"])
    q, r, t = scalars["Q"], scalars["R"], scalars["T"]
    y, zx = data["Y"], data["ZX"]
    x = data["X"].copy()
    k = np.arange(n)
    x[:n] = q + y[:n] * (r * zx[k + 10] + t * zx[k + 11])
    return {"X": x}


LFK1 = KernelSpec(
    number=1,
    name="lfk1",
    title="hydrodynamics fragment",
    source=_LFK1_SOURCE,
    ivdep=False,
    flops_per_iteration=5,  # 2 adds + 3 multiplies
    inner_iterations=1001,
    trip_profile=(1001,),
    ma=MAWorkload(f_add=2, f_mul=3, loads=2, stores=1),
    scalar_inputs={"n": 1001, "Q": 0.5, "R": 0.3, "T": 0.2},
    array_seeds={"X": 1, "Y": 2, "ZX": 3},
    reference=_lfk1_reference,
    output_arrays=("X",),
)


# ----------------------------------------------------------------------
# LFK 2 — incomplete Cholesky conjugate gradient (ICCG)
# ----------------------------------------------------------------------

_LFK2_SOURCE = """
      DIMENSION X(300), V(300)
      II = n
      IPNTP = 0
  222 IPNT = IPNTP
      IPNTP = IPNTP + II
      II = II/2
      i = IPNTP
      DO 2 k = IPNT+2, IPNTP, 2
      i = i + 1
    2 X(i) = X(k) - V(k)*X(k-1) - V(k+1)*X(k+1)
      IF (II > 1) GOTO 222
"""


def _lfk2_reference(data, scalars):
    n = int(scalars["n"])
    x = data["X"].copy()
    v = data["V"]
    ii = n
    ipntp = 0
    while True:
        ipnt = ipntp
        ipntp = ipntp + ii
        ii = ii // 2
        k = np.arange(ipnt + 2, ipntp + 1, 2)  # 1-based indices
        if len(k):
            i = ipntp + 1 + np.arange(len(k))
            # Whole-vector semantics (reads before writes), as licensed
            # by the IVDEP directive and produced by the vector code.
            x[i - 1] = (
                x[k - 1] - v[k - 1] * x[k - 2] - v[k] * x[k]
            )
        if ii <= 1:
            break
    return {"X": x}


def _lfk2_trip_profile(n: int = 101) -> tuple[int, ...]:
    """Inner trip count of each halving pass."""
    trips = []
    ii = n
    ipntp = 0
    while True:
        ipnt = ipntp
        ipntp += ii
        ii //= 2
        trips.append(len(range(ipnt + 2, ipntp + 1, 2)))
        if ii <= 1:
            return tuple(trips)


def _lfk2_inner_iterations(n: int = 101) -> int:
    return sum(_lfk2_trip_profile(n))


LFK2 = KernelSpec(
    number=2,
    name="lfk2",
    title="incomplete Cholesky conjugate gradient",
    source=_LFK2_SOURCE,
    ivdep=True,
    flops_per_iteration=4,  # 2 subs + 2 multiplies
    inner_iterations=_lfk2_inner_iterations(101),
    trip_profile=_lfk2_trip_profile(101),
    ma=MAWorkload(f_add=2, f_mul=2, loads=4, stores=1),
    scalar_inputs={"n": 101},
    array_seeds={"X": 4, "V": 5},
    reference=_lfk2_reference,
    output_arrays=("X",),
    notes=(
        "Vectorizable only under IVDEP; short, halving vector lengths "
        "and stride-2 loads make this the paper's worst bound/actual gap."
    ),
)


# ----------------------------------------------------------------------
# LFK 3 — inner product
# ----------------------------------------------------------------------

_LFK3_SOURCE = """
      DIMENSION Z(1001), X(1001)
      Q = 0.0
      DO 3 k = 1,n
    3 Q = Q + Z(k)*X(k)
"""


def _lfk3_reference(data, scalars):
    n = int(scalars["n"])
    return {"Q": float(np.dot(data["Z"][:n], data["X"][:n]))}


LFK3 = KernelSpec(
    number=3,
    name="lfk3",
    title="inner product",
    source=_LFK3_SOURCE,
    ivdep=False,
    flops_per_iteration=2,
    inner_iterations=1001,
    trip_profile=(1001,),
    ma=MAWorkload(f_add=1, f_mul=1, loads=2, stores=0),
    scalar_inputs={"n": 1001},
    array_seeds={"Z": 6, "X": 7},
    reference=_lfk3_reference,
    output_scalars=("Q",),
)


# ----------------------------------------------------------------------
# LFK 4 — banded linear equations
# ----------------------------------------------------------------------

_LFK4_SOURCE = """
      DIMENSION X(1001), XZ(1500), Y(1001)
      m = (1001 - 7)/2
      DO 444 k = 7, 1001, m
      lw = k - 6
      temp = X(k-1)
      DO 4 j = 5, n, 5
      temp = temp - XZ(lw)*Y(j)
    4 lw = lw + 1
      X(k-1) = Y(5)*temp
  444 CONTINUE
"""


def _lfk4_reference(data, scalars):
    n = int(scalars["n"])
    x = data["X"].copy()
    xz, y = data["XZ"], data["Y"]
    m = (1001 - 7) // 2
    for k in range(7, 1002, m):
        j = np.arange(5, n + 1, 5)
        lw = (k - 6) + np.arange(len(j))
        temp = x[k - 2] - float(np.dot(xz[lw - 1], y[j - 1]))
        x[k - 2] = y[4] * temp
    return {"X": x}


LFK4 = KernelSpec(
    number=4,
    name="lfk4",
    title="banded linear equations",
    source=_LFK4_SOURCE,
    ivdep=False,
    flops_per_iteration=2,
    inner_iterations=3 * len(range(5, 1002, 5)),
    trip_profile=(len(range(5, 1002, 5)),) * 3,
    ma=MAWorkload(f_add=1, f_mul=1, loads=2, stores=0),
    scalar_inputs={"n": 1001},
    array_seeds={"X": 8, "XZ": 9, "Y": 10},
    reference=_lfk4_reference,
    output_arrays=("X",),
    notes="Inner dot-product reduction over a stride-5 stream.",
)


# ----------------------------------------------------------------------
# LFK 6 — general linear recurrence equations
# ----------------------------------------------------------------------

_LFK6_SOURCE = """
      DIMENSION W(100), B(65,64)
      DO 6 i = 2,n
      DO 6 k = 1,i-1
    6 W(i) = W(i) + B(i,k)*W(i-k)
"""


def _lfk6_reference(data, scalars):
    n = int(scalars["n"])
    w = data["W"].copy()
    b = data["B"].reshape((64, 65)).T  # column-major (65, 64)
    for i in range(2, n + 1):
        k = np.arange(1, i)
        w[i - 1] += float(np.dot(b[i - 1, k - 1], w[i - 1 - k]))
    return {"W": w}


LFK6 = KernelSpec(
    number=6,
    name="lfk6",
    title="general linear recurrence equations",
    source=_LFK6_SOURCE,
    ivdep=True,
    flops_per_iteration=2,
    inner_iterations=sum(i - 1 for i in range(2, 65)),
    trip_profile=tuple(i - 1 for i in range(2, 65)),
    ma=MAWorkload(f_add=1, f_mul=1, loads=2, stores=0),
    scalar_inputs={"n": 64},
    array_seeds={"W": 11, "B": 12},
    reference=_lfk6_reference,
    output_arrays=("W",),
    notes=(
        "Triangular inner loops (average VL ~ 32): the short-vector "
        "overhead the steady-state MACS bound does not model."
    ),
)


# ----------------------------------------------------------------------
# LFK 7 — equation of state fragment
# ----------------------------------------------------------------------

_LFK7_SOURCE = (
    "      DIMENSION X(1001), Y(1001), Z(1001), U(1010)\n"
    "      DO 7 k = 1,n\n"
    "    7 X(k) = U(k) + R*(Z(k) + R*Y(k)) + T*(U(k+3) + R*(U(k+2) "
    "+ R*U(k+1)) + T*(U(k+6) + R*(U(k+5) + R*U(k+4))))\n"
)


def _lfk7_reference(data, scalars):
    n = int(scalars["n"])
    r, t = scalars["R"], scalars["T"]
    u, y, z = data["U"], data["Y"], data["Z"]
    x = data["X"].copy()
    k = np.arange(n)
    x[:n] = (
        u[k]
        + r * (z[k] + r * y[k])
        + t * (
            u[k + 3]
            + r * (u[k + 2] + r * u[k + 1])
            + t * (u[k + 6] + r * (u[k + 5] + r * u[k + 4]))
        )
    )
    return {"X": x}


LFK7 = KernelSpec(
    number=7,
    name="lfk7",
    title="equation of state fragment",
    source=_LFK7_SOURCE,
    ivdep=False,
    flops_per_iteration=16,  # 8 adds + 8 multiplies
    inner_iterations=995,
    trip_profile=(995,),
    ma=MAWorkload(f_add=8, f_mul=8, loads=3, stores=1),
    scalar_inputs={"n": 995, "R": 0.3, "T": 0.2},
    array_seeds={"X": 26, "U": 13, "Y": 14, "Z": 15},
    reference=_lfk7_reference,
    output_arrays=("X",),
)


# ----------------------------------------------------------------------
# LFK 8 — ADI integration
# ----------------------------------------------------------------------

_LFK8_SOURCE = """
      DIMENSION U1(5,101,2), U2(5,101,2), U3(5,101,2)
      DIMENSION DU1(101), DU2(101), DU3(101)
      nl1 = 1
      nl2 = 2
      DO 8 kx = 2,3
      DO 8 ky = 2,n
      DU1(ky) = U1(kx,ky+1,nl1) - U1(kx,ky-1,nl1)
      DU2(ky) = U2(kx,ky+1,nl1) - U2(kx,ky-1,nl1)
      DU3(ky) = U3(kx,ky+1,nl1) - U3(kx,ky-1,nl1)
      U1(kx,ky,nl2) = U1(kx,ky,nl1) + A11*DU1(ky) + A12*DU2(ky) + A13*DU3(ky) + SIG*(U1(kx+1,ky,nl1) - 2.0*U1(kx,ky,nl1) + U1(kx-1,ky,nl1))
      U2(kx,ky,nl2) = U2(kx,ky,nl1) + A21*DU1(ky) + A22*DU2(ky) + A23*DU3(ky) + SIG*(U2(kx+1,ky,nl1) - 2.0*U2(kx,ky,nl1) + U2(kx-1,ky,nl1))
    8 U3(kx,ky,nl2) = U3(kx,ky,nl1) + A31*DU1(ky) + A32*DU2(ky) + A33*DU3(ky) + SIG*(U3(kx+1,ky,nl1) - 2.0*U3(kx,ky,nl1) + U3(kx-1,ky,nl1))
"""


def _lfk8_reference(data, scalars):
    n = int(scalars["n"])
    a = {
        key: scalars[key]
        for key in (
            "A11", "A12", "A13", "A21", "A22", "A23", "A31", "A32", "A33",
            "SIG",
        )
    }
    # Column-major (5, 101, 2) arrays from the flat images.
    def cube(name):
        return data[name].reshape((2, 101, 5)).transpose(2, 1, 0).copy()

    u1, u2, u3 = cube("U1"), cube("U2"), cube("U3")
    du1 = data["DU1"].copy()
    du2 = data["DU2"].copy()
    du3 = data["DU3"].copy()
    sig = a["SIG"]
    for kx in (2, 3):
        ky = np.arange(2, n + 1)
        i = kx - 1
        d1 = u1[i, ky, 0] - u1[i, ky - 2, 0]
        d2 = u2[i, ky, 0] - u2[i, ky - 2, 0]
        d3 = u3[i, ky, 0] - u3[i, ky - 2, 0]
        du1[ky - 1], du2[ky - 1], du3[ky - 1] = d1, d2, d3
        for u, row in ((u1, 1), (u2, 2), (u3, 3)):
            coeff1 = a[f"A{row}1"]
            coeff2 = a[f"A{row}2"]
            coeff3 = a[f"A{row}3"]
            u[i, ky - 1, 1] = (
                u[i, ky - 1, 0]
                + coeff1 * d1 + coeff2 * d2 + coeff3 * d3
                + sig * (
                    u[i + 1, ky - 1, 0]
                    - 2.0 * u[i, ky - 1, 0]
                    + u[i - 1, ky - 1, 0]
                )
            )
    def flat(u):
        return u.transpose(2, 1, 0).reshape(-1)

    return {
        "U1": flat(u1), "U2": flat(u2), "U3": flat(u3),
        "DU1": du1, "DU2": du2, "DU3": du3,
    }


LFK8 = KernelSpec(
    number=8,
    name="lfk8",
    title="ADI integration",
    source=_LFK8_SOURCE,
    ivdep=False,
    flops_per_iteration=36,  # 21 adds/subs + 15 multiplies
    inner_iterations=2 * 99,
    trip_profile=(99, 99),
    ma=MAWorkload(f_add=21, f_mul=15, loads=9, stores=6),
    scalar_inputs={
        "n": 100,
        "A11": 0.1, "A12": 0.2, "A13": 0.3,
        "A21": 0.4, "A22": 0.5, "A23": 0.6,
        "A31": 0.7, "A32": 0.8, "A33": 0.9,
        "SIG": 0.05,
    },
    array_seeds={
        "U1": 16, "U2": 17, "U3": 18, "DU1": 19, "DU2": 20, "DU3": 21,
    },
    reference=_lfk8_reference,
    output_arrays=("U1", "U2", "U3", "DU1", "DU2", "DU3"),
    notes=(
        "Eleven scalar FP constants exceed the s-register file; the "
        "in-loop constant reloads split chimes (the paper's LFK8 story)."
    ),
)


# ----------------------------------------------------------------------
# LFK 9 — integrate predictors
# ----------------------------------------------------------------------

_LFK9_SOURCE = """
      DIMENSION PX(25,101)
      DO 9 i = 1,n
    9 PX(1,i) = DM28*PX(13,i) + DM27*PX(12,i) + DM26*PX(11,i) + DM25*PX(10,i) + DM24*PX(9,i) + DM23*PX(8,i) + DM22*PX(7,i) + C0*(PX(5,i) + PX(6,i)) + PX(3,i)
"""


def _lfk9_reference(data, scalars):
    n = int(scalars["n"])
    px = data["PX"].reshape((101, 25)).T.copy()  # column-major view
    s = scalars
    i = np.arange(n)
    px[0, i] = (
        s["DM28"] * px[12, i] + s["DM27"] * px[11, i]
        + s["DM26"] * px[10, i] + s["DM25"] * px[9, i]
        + s["DM24"] * px[8, i] + s["DM23"] * px[7, i]
        + s["DM22"] * px[6, i]
        + s["C0"] * (px[4, i] + px[5, i]) + px[2, i]
    )
    return {"PX": px.T.reshape(-1)}


LFK9 = KernelSpec(
    number=9,
    name="lfk9",
    title="integrate predictors",
    source=_LFK9_SOURCE,
    ivdep=False,
    flops_per_iteration=17,  # 9 adds + 8 multiplies
    inner_iterations=101,
    trip_profile=(101,),
    ma=MAWorkload(f_add=9, f_mul=8, loads=10, stores=1),
    scalar_inputs={
        "n": 101,
        "DM28": 0.1, "DM27": 0.2, "DM26": 0.3, "DM25": 0.4,
        "DM24": 0.5, "DM23": 0.6, "DM22": 0.7, "C0": 0.8,
    },
    array_seeds={"PX": 22},
    reference=_lfk9_reference,
    output_arrays=("PX",),
)


# ----------------------------------------------------------------------
# LFK 10 — difference predictors
# ----------------------------------------------------------------------

_LFK10_SOURCE = """
      DIMENSION PX(25,101), CX(25,101)
      DO 10 i = 1,n
      AR = CX(5,i)
      BR = AR - PX(5,i)
      PX(5,i) = AR
      CR = BR - PX(6,i)
      PX(6,i) = BR
      AR = CR - PX(7,i)
      PX(7,i) = CR
      BR = AR - PX(8,i)
      PX(8,i) = AR
      CR = BR - PX(9,i)
      PX(9,i) = BR
      AR = CR - PX(10,i)
      PX(10,i) = CR
      BR = AR - PX(11,i)
      PX(11,i) = AR
      CR = BR - PX(12,i)
      PX(12,i) = BR
      PX(14,i) = CR - PX(13,i)
   10 PX(13,i) = CR
"""


def _lfk10_reference(data, scalars):
    n = int(scalars["n"])
    px = data["PX"].reshape((101, 25)).T.copy()
    cx = data["CX"].reshape((101, 25)).T
    i = np.arange(n)
    ar = cx[4, i]
    br = ar - px[4, i]
    px[4, i] = ar
    cr = br - px[5, i]
    px[5, i] = br
    ar = cr - px[6, i]
    px[6, i] = cr
    br = ar - px[7, i]
    px[7, i] = ar
    cr = br - px[8, i]
    px[8, i] = br
    ar = cr - px[9, i]
    px[9, i] = cr
    br = ar - px[10, i]
    px[10, i] = ar
    cr = br - px[11, i]
    px[11, i] = br
    px[13, i] = cr - px[12, i]
    px[12, i] = cr
    return {"PX": px.T.reshape(-1)}


LFK10 = KernelSpec(
    number=10,
    name="lfk10",
    title="difference predictors",
    source=_LFK10_SOURCE,
    ivdep=False,
    flops_per_iteration=9,  # 9 subtractions
    inner_iterations=101,
    trip_profile=(101,),
    ma=MAWorkload(f_add=9, f_mul=0, loads=10, stores=10),
    scalar_inputs={"n": 101},
    array_seeds={"PX": 23, "CX": 24},
    reference=_lfk10_reference,
    output_arrays=("PX",),
)


# ----------------------------------------------------------------------
# LFK 12 — first difference
# ----------------------------------------------------------------------

_LFK12_SOURCE = """
      DIMENSION X(1002), Y(1002)
      DO 12 k = 1,n
   12 X(k) = Y(k+1) - Y(k)
"""


def _lfk12_reference(data, scalars):
    n = int(scalars["n"])
    x = data["X"].copy()
    y = data["Y"]
    k = np.arange(n)
    x[:n] = y[k + 1] - y[k]
    return {"X": x}


LFK12 = KernelSpec(
    number=12,
    name="lfk12",
    title="first difference",
    source=_LFK12_SOURCE,
    ivdep=False,
    flops_per_iteration=1,
    inner_iterations=1000,
    trip_profile=(1000,),
    ma=MAWorkload(f_add=1, f_mul=0, loads=1, stores=1),
    scalar_inputs={"n": 1000},
    array_seeds={"X": 27, "Y": 25},
    reference=_lfk12_reference,
    output_arrays=("X",),
)


#: The paper's workload, in kernel-number order.
CASE_STUDY_KERNELS: tuple[KernelSpec, ...] = (
    LFK1, LFK2, LFK3, LFK4, LFK6, LFK7, LFK8, LFK9, LFK10, LFK12,
)

_BY_NAME = {spec.name: spec for spec in CASE_STUDY_KERNELS}
_BY_NUMBER = {spec.number: spec for spec in CASE_STUDY_KERNELS}


def kernel(name_or_number: str | int) -> KernelSpec:
    """Look up a case-study kernel by name (``"lfk8"``) or number."""
    if isinstance(name_or_number, int):
        spec = _BY_NUMBER.get(name_or_number)
    else:
        spec = _BY_NAME.get(name_or_number.lower())
    if spec is None:
        raise WorkloadError(
            f"unknown kernel {name_or_number!r}; known: "
            f"{sorted(_BY_NAME)}"
        )
    return spec


def kernel_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in CASE_STUDY_KERNELS)

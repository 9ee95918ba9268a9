"""Catalog of published Casimir-experiment geometries for the
ideal-conductor comparison tables.

Each row carries the geometry (area or sphere radius, minimum separation)
and the ideal-conductor force quoted in the survey the catalog was
transcribed from.  ``recompute_*`` re-derive every force column from the
geometry alone so deviations from the transcription can be flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lifshitz import PlatePlate, SpherePlate, ideal_casimir_force

__all__ = [
    "PlateRow",
    "SphereRow",
    "PLATE_PLATE_ROWS",
    "SPHERE_PLATE_ROWS",
    "recompute_plate_row",
    "recompute_sphere_row",
]


@dataclass(frozen=True)
class PlateRow:
    ref: str
    area: float     # m^2
    d: float        # m
    force: float    # N, transcribed
    year: int


@dataclass(frozen=True)
class SphereRow:
    ref: str
    radius: float   # m
    d: float        # m
    force: float    # N, transcribed
    year: int


PLATE_PLATE_ROWS: tuple[PlateRow, ...] = (
    PlateRow("bressi2002measurement", 1.44e-6, 500e-9, 2.99718e-8, 2002),
    PlateRow("norte2018platform", 1.152e-10, 100e-9, 1.49859e-9, 2018),
    PlateRow("fong2019phonon", 1.089e-7, 250e-9, 3.62659e-8, 2019),
    PlateRow("perez2020system", 8.0e-12, 70e-9, 4.3344e-10, 2020),
    PlateRow("pate2020casimir", 1.07518e-7, 585e-9, 1.19423e-9, 2020),
    PlateRow("This work", 4.9e-7, 190e-9, 4.89117e-7, 2025),
)

SPHERE_PLATE_ROWS: tuple[SphereRow, ...] = (
    SphereRow("lamoreaux1997demonstration", 113000e-6, 600e-9, 1.42528e-9, 1997),
    SphereRow("mohideen1998precision", 98e-6, 100e-9, 2.66995e-10, 1998),
    SphereRow("chan2001quantum", 100e-6, 75.7e-9, 6.28042e-10, 2001),
    SphereRow("decca2003measurement", 296e-6, 200e-9, 1.00804e-10, 2003),
    SphereRow("decca2007tests", 151.3e-6, 160e-9, 1.00636e-10, 2007),
    SphereRow("van2008measurement", 50e-6, 12e-9, 7.8832e-8, 2008),
    SphereRow("munday2008measurements", 19.9e-6, 30e-9, 2.00801e-9, 2008),
    SphereRow("van2008influence", 50e-6, 20e-9, 1.70277e-8, 2008),
    SphereRow("jourdan2009quantitative", 20e-6, 100e-9, 5.44887e-11, 2009),
    SphereRow("de2009halving", 100e-6, 50e-9, 2.17955e-9, 2009),
    SphereRow("masuda2009limits", 207000e-6, 500e-9, 4.51167e-9, 2009),
    SphereRow("munday2009measured", 19.9e-6, 18e-9, 9.29634e-9, 2009),
    SphereRow("torricelli2011casimir", 10e-6, 60e-9, 1.26131e-10, 2011),
    SphereRow("sushkov2011observation", 156000e-6, 700e-9, 1.2391e-9, 2011),
    SphereRow("chang2012gradient", 41.3e-6, 50e-9, 9.00153e-10, 2012),
    SphereRow("garcia2012casimir", 4000e-6, 100e-9, 1.08977e-8, 2012),
    SphereRow("banishev2013demonstration", 61.7e-6, 222e-9, 1.53639e-11, 2013),
    SphereRow("bimonte2016isoelectronic", 149.3e-6, 200e-9, 5.08448e-11, 2016),
    SphereRow("eerkens2017investigations", 100e-6, 55e-9, 1.63753e-9, 2017),
    SphereRow("xu2018reducing", 60.8e-6, 245e-9, 1.12637e-11, 2018),
    SphereRow("liu2019examining", 43.446e-6, 250e-9, 7.57541e-12, 2019),
    SphereRow("stange2019building", 55e-6, 60e-9, 6.93722e-10, 2019),
    SphereRow("liu2019precision", 43e-6, 250e-9, 7.49765e-12, 2019),
    SphereRow("liu2021demonstration", 60.35e-6, 250e-9, 1.05229e-11, 2021),
    SphereRow("liu2021experimental", 60.35e-6, 250e-9, 1.05229e-11, 2021),
    SphereRow("bimonte2021measurement", 149.7e-6, 200e-9, 5.0981e-11, 2021),
    SphereRow("xu2022non", 69.1e-6, 175e-9, 3.51269e-11, 2022),
    SphereRow("xu2022observation", 35e-6, 50e-9, 7.62842e-10, 2022),
    SphereRow("xu2024observation", 35e-6, 100e-9, 9.53552e-11, 2024),
)


def recompute_plate_row(row: PlateRow) -> float:
    return ideal_casimir_force(PlatePlate(area=row.area, d=row.d))


def recompute_sphere_row(row: SphereRow) -> float:
    return ideal_casimir_force(SpherePlate(radius=row.radius, d=row.d))


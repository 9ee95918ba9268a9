"""Catalog of published Casimir-experiment geometries for the
ideal-conductor comparison tables.

Each row carries the experiment's geometry (plate area or sphere radius,
and minimum separation) as the engine's validated ``PlatePlate`` or
``SpherePlate`` record, and the ideal-conductor force quoted in the survey
the catalog was transcribed from, so ``ideal_casimir_force(row.geometry)``
re-derives each force and ``tables`` can flag deviations from the survey.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lifshitz import PlatePlate, SpherePlate

__all__ = ["CatalogRow", "PLATE_PLATE_ROWS", "SPHERE_PLATE_ROWS"]


@dataclass(frozen=True)
class CatalogRow:
    ref: str
    geometry: PlatePlate | SpherePlate
    force: float    # N, transcribed


PLATE_PLATE_ROWS: tuple[CatalogRow, ...] = (
    CatalogRow("bressi2002measurement", PlatePlate(1.44e-6, 500e-9), 2.99718e-8),
    CatalogRow("norte2018platform", PlatePlate(1.152e-10, 100e-9), 1.49859e-9),
    CatalogRow("fong2019phonon", PlatePlate(1.089e-7, 250e-9), 3.62659e-8),
    CatalogRow("perez2020system", PlatePlate(8.0e-12, 70e-9), 4.3344e-10),
    CatalogRow("pate2020casimir", PlatePlate(1.07518e-7, 585e-9), 1.19423e-9),
    CatalogRow("This work", PlatePlate(4.9e-7, 190e-9), 4.89117e-7),
)

SPHERE_PLATE_ROWS: tuple[CatalogRow, ...] = (
    CatalogRow("lamoreaux1997demonstration", SpherePlate(113000e-6, 600e-9), 1.42528e-9),
    CatalogRow("mohideen1998precision", SpherePlate(98e-6, 100e-9), 2.66995e-10),
    CatalogRow("chan2001quantum", SpherePlate(100e-6, 75.7e-9), 6.28042e-10),
    CatalogRow("decca2003measurement", SpherePlate(296e-6, 200e-9), 1.00804e-10),
    CatalogRow("decca2007tests", SpherePlate(151.3e-6, 160e-9), 1.00636e-10),
    CatalogRow("van2008measurement", SpherePlate(50e-6, 12e-9), 7.8832e-8),
    CatalogRow("munday2008measurements", SpherePlate(19.9e-6, 30e-9), 2.00801e-9),
    CatalogRow("van2008influence", SpherePlate(50e-6, 20e-9), 1.70277e-8),
    CatalogRow("jourdan2009quantitative", SpherePlate(20e-6, 100e-9), 5.44887e-11),
    CatalogRow("de2009halving", SpherePlate(100e-6, 50e-9), 2.17955e-9),
    CatalogRow("masuda2009limits", SpherePlate(207000e-6, 500e-9), 4.51167e-9),
    CatalogRow("munday2009measured", SpherePlate(19.9e-6, 18e-9), 9.29634e-9),
    CatalogRow("torricelli2011casimir", SpherePlate(10e-6, 60e-9), 1.26131e-10),
    CatalogRow("sushkov2011observation", SpherePlate(156000e-6, 700e-9), 1.2391e-9),
    CatalogRow("chang2012gradient", SpherePlate(41.3e-6, 50e-9), 9.00153e-10),
    CatalogRow("garcia2012casimir", SpherePlate(4000e-6, 100e-9), 1.08977e-8),
    CatalogRow("banishev2013demonstration", SpherePlate(61.7e-6, 222e-9), 1.53639e-11),
    CatalogRow("bimonte2016isoelectronic", SpherePlate(149.3e-6, 200e-9), 5.08448e-11),
    CatalogRow("eerkens2017investigations", SpherePlate(100e-6, 55e-9), 1.63753e-9),
    CatalogRow("xu2018reducing", SpherePlate(60.8e-6, 245e-9), 1.12637e-11),
    CatalogRow("liu2019examining", SpherePlate(43.446e-6, 250e-9), 7.57541e-12),
    CatalogRow("stange2019building", SpherePlate(55e-6, 60e-9), 6.93722e-10),
    CatalogRow("liu2019precision", SpherePlate(43e-6, 250e-9), 7.49765e-12),
    CatalogRow("liu2021demonstration", SpherePlate(60.35e-6, 250e-9), 1.05229e-11),
    CatalogRow("liu2021experimental", SpherePlate(60.35e-6, 250e-9), 1.05229e-11),
    CatalogRow("bimonte2021measurement", SpherePlate(149.7e-6, 200e-9), 5.0981e-11),
    CatalogRow("xu2022non", SpherePlate(69.1e-6, 175e-9), 3.51269e-11),
    CatalogRow("xu2022observation", SpherePlate(35e-6, 50e-9), 7.62842e-10),
    CatalogRow("xu2024observation", SpherePlate(35e-6, 100e-9), 9.53552e-11),
)

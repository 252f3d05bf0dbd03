import math

import numpy as np
import pytest

from mgdesign import dispatch
from mgdesign.dispatch import Design
from mgdesign.metrics import MetricVector
from mgdesign.scenario import (
    Scenario,
    bundled_scenario,
    synthesize_irradiance,
    synthesize_load,
    synthesize_wind_speed,
)

#: The paper-flagship design used for the bundled-scenario checks.
A5 = Design(pv_kw=418.0, wt_kw=123.0, dg_kw=0.0, bess_kwh=704.0, converter_kw=255.0)


@pytest.fixture(autouse=True)
def empty_stage_store() -> None:
    """Each test starts with no battery stage kept, so a test that counts
    battery loops or measures a stage sees its own computations."""
    dispatch._stages.clear()


@pytest.fixture(scope="session")
def bundled() -> Scenario:
    return bundled_scenario()


@pytest.fixture(scope="session")
def a5() -> Design:
    return A5


def random_scenario(seed: int) -> Scenario:
    """A structurally valid scenario with randomized series and tariff."""
    rng = np.random.default_rng(seed)
    profile = tuple(rng.uniform(40.0, 250.0, 24))
    monthly_irr = tuple(rng.uniform(1.5, 7.5, 12))
    monthly_wind = tuple(rng.uniform(3.0, 9.0, 12))
    scenario = Scenario(
        load=synthesize_load(profile, rng.uniform(0, 0.2), rng.uniform(0, 0.2), int(rng.integers(1 << 30))),
        irradiance=synthesize_irradiance(monthly_irr, int(rng.integers(1 << 30))),
        wind_speed=synthesize_wind_speed(monthly_wind, int(rng.integers(1 << 30))),
        name=f"random-{seed}",
    )
    from dataclasses import replace

    tariff = replace(scenario.tariff,
                     max_import_kw=float(rng.uniform(0.0, 400.0)),
                     max_export_kw=float(rng.uniform(0.0, 400.0)))
    return replace(scenario, tariff=tariff)


def random_design(seed: int) -> Design:
    rng = np.random.default_rng(seed)
    return Design(
        pv_kw=float(rng.uniform(0, 600)) * float(rng.integers(0, 2)),
        wt_kw=float(rng.uniform(0, 300)) * float(rng.integers(0, 2)),
        dg_kw=float(rng.uniform(0, 120)) * float(rng.integers(0, 2)),
        bess_kwh=float(rng.uniform(0, 1200)) * float(rng.integers(0, 2)),
        converter_kw=float(rng.uniform(0, 400)),
        grid_cap_kw=float(rng.uniform(0, 400)) if rng.integers(0, 2) else None,
    )


def table2_rows() -> dict[str, MetricVector]:
    """The five published design-comparison rows as metric vectors."""

    def row(npc_m, rel, eff, co2, lcoe_v, om, cap):
        return MetricVector(
            npc_usd=npc_m * 1e6, reliability=rel, efficiency_pct=eff,
            co2_kg_per_yr=co2, lcoe_usd_per_kwh=lcoe_v, capital_usd=cap,
            om_usd_per_yr=om, lpsp=-math.log(rel) / 100.0 if rel < 1.0 else 0.0)

    return {
        "A1": row(4.47, 0.9994, 92.5, 315909, 0.190, 189939, 1.80e6),
        "A2": row(5.53, 1.0000, 79.744, 31041, 0.195, 183291, 2.24e6),
        "A3": row(5.81, 0.9994, 96.997, 361807, 0.252, 243356, 1.60e6),
        "A4": row(6.06, 0.9993, 79.956, -382269, 0.175, 144142, 3.57e6),
        "A5": row(4.83, 1.0000, 91.9924, 302747, 0.208, 201473, 1.42e6),
    }

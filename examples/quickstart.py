"""Quickstart: the paper's running example, end to end.

Builds the 4-cycle query Q□, states the statistics S□ and S□full, computes the
information-theoretic bounds and widths, lets the optimizer pick a plan, and
executes it on the Figure 2 instance and on a larger skewed instance.

Run with:  python examples/quickstart.py
"""

from repro import (
    agm_bound,
    estimate_costs,
    four_cycle_full,
    four_cycle_projected,
    plan,
    polymatroid_bound,
)
from repro.datagen import hard_four_cycle_instance
from repro.paperdata import (
    figure2_database,
    four_cycle_cardinality_statistics,
    four_cycle_full_statistics,
)


def main() -> None:
    query = four_cycle_projected()
    full_query = four_cycle_full()
    print("Query (Eq. 2):", query)

    # --- statistics and output-size bounds (Section 4.2) -------------------
    n = 10_000
    s_box = four_cycle_cardinality_statistics(n)
    s_full = four_cycle_full_statistics(n, degree_bound=64)
    agm = agm_bound(full_query, s_box)
    poly = polymatroid_bound(full_query, s_full)
    print(f"\nAGM bound under S□         : N^{agm.exponent:.3f} = {agm.size_bound:.3e}")
    print(f"Polymatroid bound under S□full (FD + degree): "
          f"N^{poly.exponent:.3f} = {poly.size_bound:.3e}  (paper: N^1.5·√C)")

    # --- widths and plan choice (Sections 4.3, 5.3) -------------------------
    estimate = estimate_costs(query, s_box)
    print("\n" + estimate.describe())

    chosen = plan(query, s_box)
    print("\n" + chosen.explain())

    # --- execute on the Figure 2 instance -----------------------------------
    figure2 = figure2_database()
    result = chosen.execute(figure2)
    print("\nAnswers on the Figure 2 instance:", sorted(result.answer.rows))

    # --- execute on a larger skewed instance ---------------------------------
    size = 200
    skewed = hard_four_cycle_instance(size)
    skewed_plan = plan(query, four_cycle_cardinality_statistics(size))
    execution = skewed_plan.execute(skewed)
    print(f"\nSkewed instance with N = {size}:")
    print(f"  answers                : {execution.output_size}")
    print(f"  largest intermediate   : {execution.counter.max_intermediate} tuples")
    print(f"  (N^1.5 = {int(size ** 1.5)}, N²/4 = {size * size // 4} — "
          "the adaptive plan stays on the N^1.5 side)")

    # --- serve repeated traffic through the engine ---------------------------
    from repro import Engine

    engine = Engine(skewed)
    prepared = engine.prepare(query)      # measured statistics, costed once
    for _ in range(5):
        prepared.execute()                # plan-cache + warm index serving
    again = engine.execute(query)         # same shape: a plan-cache hit
    assert again.answer.rows == prepared.execute().answer.rows
    print("\nEngine serving the same query 7 times:")
    print("  " + engine.stats.describe().replace("\n", "\n  "))

    # --- the async multi-tenant service --------------------------------------
    import asyncio

    from repro.service import DeadlineExceededError, QueryService, ServiceConfig

    async def serve_two_tenants():
        service = QueryService(ServiceConfig(max_concurrent=4, max_per_tenant=2))
        service.create_tenant("figure2", figure2)
        service.create_tenant("skewed", skewed)
        # Concurrent clients over isolated per-tenant engines; answers are
        # bit-identical to the serial runs above.
        results = await asyncio.gather(*(
            service.query(tenant, query)
            for tenant in ("figure2", "skewed") for _ in range(3)))
        assert {tuple(r.page.rows[0]) for r in results
                if r.tenant == "figure2"} <= set(result.answer.rows)
        try:  # deadlines cancel cooperatively, mid-join
            await service.query("skewed", query, timeout=1e-6)
        except DeadlineExceededError:
            pass
        stats = service.stats()
        print("\nService: 6 concurrent requests + 1 deadline across 2 tenants:")
        print(f"  completed={stats['totals']['completed']} "
              f"cancelled={stats['totals']['cancelled']} "
              f"plans built={stats['totals']['plans_built']} "
              f"reused={stats['totals']['plans_reused']}")
        await service.shutdown()  # drains in-flight work, then closes

    asyncio.run(serve_two_tenants())


if __name__ == "__main__":
    main()

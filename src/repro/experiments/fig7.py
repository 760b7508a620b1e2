"""Fig. 7: static % of potentially-escaping reads marked acquire."""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.session import Session
from repro.experiments import expected
from repro.programs.registry import BenchProgram, all_programs
from repro.util.stats import geomean
from repro.util.text import ascii_bar_chart, format_table


@dataclass(frozen=True)
class Fig7Row:
    program: str
    escaping_reads: int
    control_acquires: int
    address_control_acquires: int

    @property
    def control_fraction(self) -> float:
        return self.control_acquires / max(1, self.escaping_reads)

    @property
    def address_control_fraction(self) -> float:
        return self.address_control_acquires / max(1, self.escaping_reads)


@dataclass
class Fig7Result:
    rows: list[Fig7Row]

    @property
    def geomean_control(self) -> float:
        return geomean([r.control_fraction for r in self.rows])

    @property
    def geomean_address_control(self) -> float:
        return geomean([r.address_control_fraction for r in self.rows])


def run_program(program: BenchProgram, ir=None, session=None) -> Fig7Row:
    # One compile + one session: both variants share the session
    # engine's variant-independent facts (points-to, escape,
    # reachability). Callers sweeping several figures pass both in to
    # share across figures too.
    session = session if session is not None else Session()
    ir = ir if ir is not None else program.compile()
    control = session.analysis(ir, "control")
    addr_ctrl = session.analysis(ir, "address+control")
    return Fig7Row(
        program=program.name,
        escaping_reads=control.total_escaping_reads,
        control_acquires=control.total_sync_reads,
        address_control_acquires=addr_ctrl.total_sync_reads,
    )


def run(programs: dict[str, BenchProgram] | None = None) -> Fig7Result:
    programs = programs if programs is not None else all_programs()
    return Fig7Result([run_program(p) for p in programs.values()])


def render(result: Fig7Result | None = None) -> str:
    result = result if result is not None else run()
    rows = [
        [
            r.program,
            r.escaping_reads,
            f"{r.control_fraction:.1%}",
            f"{r.address_control_fraction:.1%}",
        ]
        for r in result.rows
    ]
    rows.append(
        [
            "geomean",
            "",
            f"{result.geomean_control:.1%}",
            f"{result.geomean_address_control:.1%}",
        ]
    )
    table = format_table(
        ["program", "escaping reads", "Control", "Address+Control"],
        rows,
        title="Fig. 7: % of potentially thread-escaping reads marked acquire",
    )
    chart = ascii_bar_chart(
        {
            r.program: {
                "Control": r.control_fraction,
                "Addr+Ctrl": r.address_control_fraction,
            }
            for r in result.rows
        },
        value_format="{:.1%}",
    )
    footer = (
        f"\npaper geomeans: Control {expected.FIG7_GEOMEAN_CONTROL:.0%}, "
        f"Address+Control {expected.FIG7_GEOMEAN_ADDRESS_CONTROL:.0%}"
    )
    return table + "\n\n" + chart + footer

"""Experiment harnesses regenerating the paper's Table 1 and Figure 11."""

from repro.experiments.paper_data import (
    PAPER_CIRCUIT_SIZES,
    PAPER_FIGURE11_GAIN,
    PAPER_TABLE1,
    PaperTable1Entry,
    paper_table1_entry,
)
from repro.experiments.report import (
    format_runtime,
    format_text_table,
    save_json,
)
from repro.experiments.table1 import (
    Table1Result,
    Table1Row,
    run_table1,
    run_table1_circuit,
)
from repro.experiments.figure11 import (
    FIGURE11_CIRCUITS,
    Figure11Result,
    Figure11Series,
    run_figure11,
    run_figure11_circuit,
)

__all__ = [
    "PAPER_TABLE1",
    "PAPER_CIRCUIT_SIZES",
    "PAPER_FIGURE11_GAIN",
    "PaperTable1Entry",
    "paper_table1_entry",
    "format_text_table",
    "format_runtime",
    "save_json",
    "Table1Row",
    "Table1Result",
    "run_table1",
    "run_table1_circuit",
    "Figure11Series",
    "Figure11Result",
    "FIGURE11_CIRCUITS",
    "run_figure11",
    "run_figure11_circuit",
]

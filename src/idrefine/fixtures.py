"""Built-in example diagrams.

``mini_weather`` is the canonical two-observation umbrella problem used
throughout the test suite; its numbers are fixture inputs and are pinned.
``weather3`` is the three-outcome report/view variant (numbers are also
fixture inputs).  ``deterministic_exclusion`` contains a logically
impossible context for exercising zero-probability pruning.

The car-buyer problem ships as structure only: its numeric tables are not
public domain here, so they load from an external data file (a JSON object
``{"tables": {node: [flat row-major values]}}``) slotted into the
structural template.
"""

from __future__ import annotations

import json
import os

from .diagram import InfluenceDiagram, parse_diagram

CAR_BUYER_DATA_ENV = "CAR_BUYER_DATA"

MINI_WEATHER_JSON = """
{
  "nodes": [
    {"name": "W", "kind": "chance", "outcomes": ["sun", "rain"],
     "parents": [], "table": [0.7, 0.3]},
    {"name": "R", "kind": "chance", "outcomes": ["sunny", "rainy"],
     "parents": ["W"], "table": [0.9, 0.1, 0.2, 0.8]},
    {"name": "D", "kind": "decision", "outcomes": ["take", "leave"],
     "parents": ["R"]},
    {"name": "V", "kind": "value", "parents": ["W", "D"],
     "table": [20, 100, 70, 0]}
  ],
  "decision_order": ["D"]
}
"""


def mini_weather() -> InfluenceDiagram:
    return parse_diagram(MINI_WEATHER_JSON)


def mini_weather_coin(n_coins: int = 1) -> InfluenceDiagram:
    """mini_weather plus fair coins that are observed but irrelevant."""
    doc = json.loads(MINI_WEATHER_JSON)
    coins = [f"C{i}" for i in range(1, n_coins + 1)]
    for c in coins:
        doc["nodes"].insert(-2, {"name": c, "kind": "chance",
                                 "outcomes": ["h", "t"], "parents": [],
                                 "table": [0.5, 0.5]})
    decision = next(n for n in doc["nodes"] if n["name"] == "D")
    decision["parents"] = ["R"] + coins
    return parse_diagram(json.dumps(doc))


def weather3() -> InfluenceDiagram:
    """Two-state weather with three-outcome report and window view."""
    doc = {
        "nodes": [
            {"name": "Weather", "kind": "chance", "outcomes": ["sun", "rain"],
             "parents": [], "table": [0.6, 0.4]},
            {"name": "Report", "kind": "chance",
             "outcomes": ["sunny", "cloudy", "rainy"], "parents": ["Weather"],
             "table": [0.7, 0.2, 0.1, 0.15, 0.25, 0.6]},
            {"name": "View", "kind": "chance",
             "outcomes": ["sunny", "cloudy", "rainy"], "parents": ["Weather"],
             "table": [0.75, 0.15, 0.1, 0.1, 0.3, 0.6]},
            {"name": "Take", "kind": "decision", "outcomes": ["take", "leave"],
             "parents": ["Report", "View"]},
            {"name": "Satisfaction", "kind": "value", "parents": ["Weather", "Take"],
             "table": [20, 100, 70, 0]},
        ],
        "decision_order": ["Take"],
    }
    return parse_diagram(json.dumps(doc))


def deterministic_exclusion() -> InfluenceDiagram:
    """B is a deterministic copy of A, so two of the four (A, B) contexts
    are impossible; C is an observed irrelevant coin that keeps the pruned
    leaves extensible in principle."""
    doc = {
        "nodes": [
            {"name": "A", "kind": "chance", "outcomes": ["a0", "a1"],
             "parents": [], "table": [0.6, 0.4]},
            {"name": "B", "kind": "chance", "outcomes": ["b0", "b1"],
             "parents": ["A"], "table": [1.0, 0.0, 0.0, 1.0]},
            {"name": "C", "kind": "chance", "outcomes": ["c0", "c1"],
             "parents": [], "table": [0.5, 0.5]},
            {"name": "D", "kind": "decision", "outcomes": ["go", "stay"],
             "parents": ["A", "B", "C"]},
            {"name": "V", "kind": "value", "parents": ["A", "B", "D"],
             "table": [10, 4, 0, 0, 0, 0, 2, 8]},
        ],
        "decision_order": ["D"],
    }
    return parse_diagram(json.dumps(doc))


def constant_utility() -> InfluenceDiagram:
    """Every utility equal: the compiled network is degenerate."""
    doc = json.loads(MINI_WEATHER_JSON)
    value = next(n for n in doc["nodes"] if n["kind"] == "value")
    value["table"] = [5, 5, 5, 5]
    return parse_diagram(json.dumps(doc))


# Car-buyer structural template.  Tables for the starred nodes come from
# the external data file; arities and arcs are fixed here.
CAR_BUYER_STRUCTURE = {
    "nodes": [
        {"name": "condition", "kind": "chance",
         "outcomes": ["peach", "lemon"], "parents": []},
        {"name": "first_test", "kind": "decision",
         "outcomes": ["none", "steering", "fuel_electrical"], "parents": []},
        {"name": "first_result", "kind": "chance",
         "outcomes": ["no_result", "no_defects", "one_defect", "two_defects"],
         "parents": ["condition", "first_test"]},
        {"name": "second_test", "kind": "decision",
         "outcomes": ["none", "transmission"],
         "parents": ["first_test", "first_result"]},
        {"name": "second_result", "kind": "chance",
         "outcomes": ["no_result", "no_defects", "one_defect", "two_defects"],
         "parents": ["condition", "first_test", "second_test"]},
        {"name": "buy", "kind": "decision", "outcomes": ["buy", "dont_buy"],
         "parents": ["first_test", "first_result", "second_test", "second_result"]},
        {"name": "outcome_value", "kind": "value",
         "parents": ["condition", "first_test", "second_test", "buy"]},
    ],
    "decision_order": ["first_test", "second_test", "buy"],
}

CAR_BUYER_TABLE_NODES = ("condition", "first_result", "second_result", "outcome_value")


def car_buyer_template() -> dict:
    """Deep copy of the structural template (tables absent)."""
    return json.loads(json.dumps(CAR_BUYER_STRUCTURE))


def load_car_buyer(data_path) -> InfluenceDiagram:
    """Merge an external numeric data file into the car-buyer structure."""
    with open(data_path, encoding="utf-8") as fh:
        data = json.load(fh)
    tables = data.get("tables")
    if not isinstance(tables, dict):
        raise ValueError("car-buyer data file needs a 'tables' object")
    doc = car_buyer_template()
    for node in doc["nodes"]:
        name = node["name"]
        if name in CAR_BUYER_TABLE_NODES:
            if name not in tables:
                raise ValueError(f"car-buyer data file is missing a table for {name!r}")
            node["table"] = tables[name]
    return parse_diagram(json.dumps(doc))


def car_buyer_data_path() -> str | None:
    """Path of the external car-buyer data file, if configured and present."""
    path = os.environ.get(CAR_BUYER_DATA_ENV)
    if path and os.path.exists(path):
        return path
    return None

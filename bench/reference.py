"""Fixed reference program: the yardstick for the host's speed.

The benchmark starts this script right after every CLI process and reports
the CLI's wall time as a multiple of this one's. The host this benchmark
runs on is shared: its speed drifts by half within minutes, and that drift
moves both programs alike. The script does the kind of work the CLI does
(interpreter start, regular expressions, string normalization, dict
lookups, JSON) on fixed data, and imports nothing from the repository, so
its cost is the same on every commit.
"""

import json
import re


def main() -> None:
    words = ["North", "South", "Pump", "Valve", "Main", "Gate", "Motor", "Sensor", "Heater", "Fan",
             "Door", "Lamp", "Relay", "Switch", "Boiler", "Turbine", "Tank", "Brake", "Upper", "Lower"]
    names = [f"{a}{b}{i}" for i, (a, b) in enumerate((a, b) for a in words for b in words)]
    split = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
    found = 0
    for round_ in range(90):
        table = {}
        for name in names:
            table["".join(ch for ch in split.sub(" ", name).lower() if ch.isalnum())] = name
        for name in names[round_ % 7::7]:
            found += "".join(ch for ch in name.lower() if ch.isalnum()) in table
    text = json.dumps([{"name": n, "letters": sorted(n)} for n in names], indent=2, sort_keys=True)
    print(found, len(json.loads(text)))


if __name__ == "__main__":
    main()

"""End-to-end certificate generation for both case families.

An analysis sweeps a parameter range, runs the gate pipeline for every outer
subgroup descriptor, and packages the verdicts into certificates. The same
reports are available as deterministic JSON via emit() or the CLI:

    dtgcert analyze --case ree --n 0..6 --x all --format json
"""
import json

from dtgcert import analyze, emit
from dtgcert.pipeline import certificate_text

print("== ree sweep, n = 0..3 ==")
report = analyze("ree", 0, 3)
print(f"summary: {report.summary}")
for cert in report.certificates[:4]:
    print()
    print(certificate_text(cert))

print()
print("== subfield sweep, n = 1..2 ==")
report_sub = analyze("subfield", 1, 2)
print(f"summary: {report_sub.summary}")
graph_cert = next(c for c in report_sub.certificates if c.x_graph)
print()
print(certificate_text(graph_cert))

print()
print("== JSON serialization ==")
payload = json.loads(emit(report_sub, "json"))
first = payload["certificates"][0]
print(f"schema keys: {list(first)}")
print(f"first certificate gates: {[g['name'] for g in first['gates']]}")
print(f"conclusions: {sorted({c['conclusion'] for c in payload['certificates']})}")

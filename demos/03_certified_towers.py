#!/usr/bin/env python3
"""Walkthrough: certified anodyne towers.

Replays the builtin certificates, printing each pushout step and the growth
of the subset, then lets the search engine rediscover the square tower.
"""

from complicial import big_C, big_H, search_tower, verify_certificate
from complicial.anodyne import builtin_certificates, replay_states
from complicial.shapes import vertex_chain
from complicial.stratified import SubsetHandle

for cert in builtin_certificates():
    print(f"== {cert.note} ==")
    Z = cert.ambient
    print(f"start: {len(cert.start.members)} cells, {len(cert.start.thin_members)} thin")
    for i, (step, members, flags) in enumerate(replay_states(cert)):
        chain = "<".join(
            "(" + ",".join(map(str, v)) + ")"
            for v in vertex_chain(step.attach.w, Z.dims[step.attach])
        )
        print(
            f"  step {i + 1}: {step.kind}[{step.n},{step.k}] at {chain}"
            f" -> {len(members)} cells, {len(flags)} thin"
        )
    print("verdict:", "PASS" if not verify_certificate(cert) else "FAIL")
    print()

print("== rediscovering the square tower by search ==")
X = big_C(2, 1)
cert = search_tower(big_H(2, 1), SubsetHandle(X, frozenset(X.dims), X.thin), budget=10)
for step in cert.steps:
    print(f"  found {step.kind}[{step.n},{step.k}] at {step.attach}")
print("search certificate verifies:", verify_certificate(cert) == [])

#!/usr/bin/env python3
"""Check the disassembly of object files for two SIMD hazards.

    python3 tests/check_simd_asm.py OBJECT...

1. Dirty upper vector state. A function that writes a ymm or zmm register
   must run vzeroupper (or vzeroall) before every path from that write
   reaches a ret, a call or a tail-call jmp; otherwise the caller's or
   callee's SSE code pays the AVX-SSE transition penalty. The check follows
   each function's control flow (direct jumps, fall-through), so a write on
   one branch and a vzeroupper on another are told apart.
2. Fused multiply-add. No vfmadd/vfmsub/vfnmadd/vfnmsub may appear: GCC
   contracts a * b + c into an FMA inside target("avx2"/"avx512f") functions,
   which rounds once instead of twice and changes output bytes.

Prints every finding with its function and address and exits 1 if there is
any, 0 otherwise. Needs GNU objdump on PATH.
"""

import re
import subprocess
import sys

FUNC_RE = re.compile(r"^([0-9a-f]+) <(.+)>:$")
INSN_RE = re.compile(r"^\s*([0-9a-f]+):\s+(.*)$")
RELOC_RE = re.compile(r"^\s*[0-9a-f]+: R_X86_64_")
TARGET_RE = re.compile(r"^([0-9a-f]+) <")
VECTOR_DEST_RE = re.compile(r"^%[yz]mm\d+(\{%k\d\})?(\{z\})?$")
FMA_RE = re.compile(r"^vf(n?)m(add|sub)")
PREFIXES = {"cs", "ds", "es", "ss", "fs", "gs", "rep", "repz", "repnz", "repe", "repne",
            "lock", "notrack", "bnd", "data16", "addr32"}


def split_operands(text):
    """AT&T operands, split on the commas outside parentheses."""
    ops, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            ops.append(cur.strip())
            cur = ""
        else:
            cur += ch
    if cur.strip():
        ops.append(cur.strip())
    return ops


def parse(obj):
    """{function: [(addr, mnemonic, operand text, has_reloc)]} of one object."""
    out = subprocess.run(["objdump", "-dr", "-C", "--no-show-raw-insn", obj],
                         check=True, capture_output=True, text=True).stdout
    funcs, cur = {}, None
    for line in out.splitlines():
        m = FUNC_RE.match(line)
        if m:
            cur = funcs.setdefault(m.group(2), [])
            continue
        if cur is None:
            continue
        if RELOC_RE.match(line):
            if cur:
                cur[-1] = cur[-1][:3] + (True,)
            continue
        m = INSN_RE.match(line)
        if not m:
            continue
        words = m.group(2).split(None, 1)
        while len(words) > 1 and words[0] in PREFIXES:
            words = words[1].split(None, 1)
        if not words:
            continue
        ops = words[1].split("#")[0].strip() if len(words) > 1 else ""
        cur.append((int(m.group(1), 16), words[0], ops, False))
    return funcs


def writes_vector(mnemonic, ops):
    operands = split_operands(ops)
    return bool(operands) and mnemonic.startswith("v") and bool(
        VECTOR_DEST_RE.match(operands[-1]))


def check_function(name, insns):
    """Findings of one function: dirty-state exits and FMA instructions."""
    findings = [f"{name} @{a:x}: {m} {o} (fused multiply-add)"
                for a, m, o, _ in insns if FMA_RE.match(m)]
    if not any(writes_vector(m, o) for _, m, o, _ in insns):
        return findings
    index = {a: i for i, (a, _, _, _) in enumerate(insns)}
    dirty_in = [False] * len(insns)
    seen = [False] * len(insns)
    work = [(0, False)]
    reported = set()
    while work:
        i, dirty = work.pop()
        if seen[i] and (dirty_in[i] or not dirty):
            continue
        seen[i] = True
        dirty_in[i] = dirty_in[i] or dirty
        addr, mnem, ops, reloc = insns[i]
        state = dirty_in[i]
        if mnem in ("vzeroupper", "vzeroall"):
            state = False
        elif writes_vector(mnem, ops):
            state = True
        succ, exits = [], False
        target = TARGET_RE.match(ops)
        if mnem.startswith("ret"):
            exits = True
        elif mnem.startswith("call"):
            exits = True
            succ.append(i + 1)
        elif mnem.startswith("jmp"):
            if target and not reloc and int(target.group(1), 16) in index:
                succ.append(index[int(target.group(1), 16)])
            else:
                exits = True  # tail call or indirect jump
        elif mnem.startswith("j"):
            if target and int(target.group(1), 16) in index:
                succ.append(index[int(target.group(1), 16)])
            succ.append(i + 1)
        elif mnem not in ("ud2", "int3", "hlt"):
            succ.append(i + 1)
        if exits and state and addr not in reported:
            reported.add(addr)
            findings.append(f"{name} @{addr:x}: {mnem} {ops} "
                            "with dirty upper vector state (no vzeroupper since a ymm/zmm write)")
        for j in succ:
            if j < len(insns):
                work.append((j, state))
    return findings


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    for obj in argv[1:]:
        funcs = parse(obj)
        vector_funcs = sum(1 for insns in funcs.values()
                           if any(writes_vector(m, o) for _, m, o, _ in insns))
        findings = [f for name, insns in funcs.items() for f in check_function(name, insns)]
        print(f"{obj}: {len(funcs)} functions, {vector_funcs} with ymm/zmm writes, "
              f"{len(findings)} findings")
        for f in findings:
            print(f"  FAIL: {f}")
        failures += len(findings)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

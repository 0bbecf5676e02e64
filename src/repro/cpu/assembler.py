"""A two-pass assembler (and disassembler) for PPC-lite.

Syntax is classic PowerPC-ish assembly::

    .equ  INTC_ISR, 0x00
    .org  0x0
    start:
        li    r3, 42            # pseudo: addi/lis+ori as needed
        la    r4, buffer        # pseudo: load a label address
        stw   r3, 0(r4)
        bl    subroutine
        halt
    buffer:
        .word 0

Comments start with ``#`` or ``;``.  Labels end with ``:`` and may
share a line with an instruction.  Directives: ``.org <addr>``
(byte address, word aligned), ``.word <value, ...>``, ``.equ NAME, value``.
Pseudo-ops: ``li`` (one or two instructions depending on the value),
``la`` (always two, so forward references have a fixed size), ``mr``,
``bdnz``, ``beq/bne/blt/bge/bgt/ble`` shortcuts for ``bc``.

Pass 1 sizes everything and collects labels; pass 2 encodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .isa import (
    BRANCH_CONDS,
    Instruction,
    R_FUNCTS,
    SYS_FUNCTS,
    decode,
    encode,
)

__all__ = ["assemble", "disassemble", "AssemblerError", "Program"]


class AssemblerError(ValueError):
    def __init__(self, line_no: int, text: str, message: str):
        super().__init__(f"line {line_no}: {message}: {text!r}")
        self.line_no = line_no


_BRANCH_ALIASES = {
    "beq": "eq",
    "bne": "ne",
    "blt": "lt",
    "bge": "ge",
    "bgt": "gt",
    "ble": "le",
    "bdnz": "ctrnz",
    "bra": "always",
}

_MEM_RE = re.compile(r"^(-?\w+)\((\w+)\)$")


@dataclass
class Program:
    """Assembled output: a word image plus its symbol table."""

    words: List[int]
    base_addr: int
    symbols: Dict[str, int]

    @property
    def size_words(self) -> int:
        return len(self.words)


def _parse_int(token: str, symbols: Dict[str, int], line_no: int, text: str) -> int:
    token = token.strip()
    if token in symbols:
        return symbols[token]
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(line_no, text, f"cannot resolve {token!r}")


def _parse_reg(token: str, line_no: int, text: str) -> int:
    token = token.strip().lower()
    if not token.startswith("r") or not token[1:].isdigit():
        raise AssemblerError(line_no, text, f"expected register, got {token!r}")
    n = int(token[1:])
    if n > 31:
        raise AssemblerError(line_no, text, f"no such register {token}")
    return n


@dataclass
class _Item:
    line_no: int
    text: str
    kind: str  # "inst" | "word"
    mnemonic: str = ""
    operands: tuple = ()
    addr: int = 0
    size_words: int = 1
    value: int = 0


def _tokenize(source: str):
    """Yield (line_no, label or None, statement or None) per line."""
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#")[0].split(";")[0].strip()
        if not line:
            continue
        while True:
            m = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
            if m:
                yield line_no, m.group(1), None
                line = m.group(2).strip()
                if not line:
                    break
            else:
                yield line_no, None, line
                break


def _statement_size(mnemonic: str) -> int:
    # li/la always occupy two words so pass-1 layout never depends on
    # operand values (which may be forward references)
    if mnemonic in ("la", "li"):
        return 2
    return 1


def assemble(source: str, base_addr: int = 0) -> Program:
    """Assemble PPC-lite source into a word image at ``base_addr``."""
    if base_addr % 4:
        raise ValueError("base address must be word aligned")
    symbols: Dict[str, int] = {}
    items: List[_Item] = []
    addr = base_addr

    # ---------------- pass 1: layout + labels ----------------
    for line_no, label, stmt in _tokenize(source):
        if label is not None:
            if label in symbols:
                raise AssemblerError(line_no, label, "duplicate label")
            symbols[label] = addr
            continue
        head, _, rest = stmt.partition(" ")
        mnemonic = head.strip().lower()
        operands = tuple(o.strip() for o in rest.split(",")) if rest.strip() else ()
        if mnemonic == ".org":
            target = int(operands[0], 0)
            if target < addr:
                raise AssemblerError(line_no, stmt, ".org going backwards")
            if target % 4:
                raise AssemblerError(line_no, stmt, ".org must be word aligned")
            # pad with nops so the image stays contiguous
            while addr < target:
                items.append(_Item(line_no, "(pad)", "inst", "nop", (), addr))
                addr += 4
            continue
        if mnemonic == ".equ":
            if len(operands) != 2:
                raise AssemblerError(line_no, stmt, ".equ NAME, value")
            symbols[operands[0]] = int(operands[1], 0)
            continue
        if mnemonic == ".word":
            for op in operands:
                items.append(_Item(line_no, stmt, "word", addr=addr, value=0))
                items[-1].operands = (op,)
                addr += 4
            continue
        if mnemonic.startswith("."):
            raise AssemblerError(line_no, stmt, f"unknown directive {mnemonic}")
        size = _statement_size(mnemonic)
        items.append(
            _Item(line_no, stmt, "inst", mnemonic, operands, addr, size)
        )
        addr += 4 * size

    # ---------------- pass 2: encode ----------------
    words: List[int] = []

    def emit(inst: Instruction) -> None:
        words.append(encode(inst))

    for item in items:
        if item.kind == "word":
            value = _parse_int(item.operands[0], symbols, item.line_no, item.text)
            words.append(value & 0xFFFF_FFFF)
            continue
        m, ops = item.mnemonic, item.operands
        ln, tx = item.line_no, item.text

        def val(tok):
            return _parse_int(tok, symbols, ln, tx)

        def reg(tok):
            return _parse_reg(tok, ln, tx)

        def branch_offset(tok):
            target = val(tok)
            return (target - item.addr) // 4

        try:
            if m in ("addi", "addis", "ori", "andi", "xori"):
                emit(Instruction(m, rd=reg(ops[0]), ra=reg(ops[1]), imm=val(ops[2])))
            elif m in ("lwz", "stw"):
                mm = _MEM_RE.match(ops[1].replace(" ", ""))
                if not mm:
                    raise AssemblerError(ln, tx, "expected d(rA)")
                emit(Instruction(
                    m, rd=reg(ops[0]),
                    ra=_parse_reg(mm.group(2), ln, tx),
                    imm=_parse_int(mm.group(1), symbols, ln, tx),
                ))
            elif m in ("mfdcr", "mtdcr"):
                emit(Instruction(m, rd=reg(ops[0]), imm=val(ops[1])))
            elif m in ("b", "bl"):
                emit(Instruction(m, imm=branch_offset(ops[0])))
            elif m == "bc":
                cond = ops[0].lower()
                if cond not in BRANCH_CONDS:
                    raise AssemblerError(ln, tx, f"unknown condition {cond!r}")
                emit(Instruction("bc", cond=cond, imm=branch_offset(ops[1])))
            elif m in _BRANCH_ALIASES:
                emit(Instruction(
                    "bc", cond=_BRANCH_ALIASES[m], imm=branch_offset(ops[0])
                ))
            elif m in ("cmpwi", "cmplwi"):
                emit(Instruction(m, ra=reg(ops[0]), imm=val(ops[1])))
            elif m in ("cmpw", "cmplw"):
                emit(Instruction(m, ra=reg(ops[0]), rb=reg(ops[1])))
            elif m in ("mtlr", "mtctr"):
                emit(Instruction(m, ra=reg(ops[0])))
            elif m in ("mflr", "mfctr"):
                emit(Instruction(m, rd=reg(ops[0])))
            elif m in R_FUNCTS:
                emit(Instruction(
                    m, rd=reg(ops[0]), ra=reg(ops[1]), rb=reg(ops[2])
                ))
            elif m in SYS_FUNCTS:
                emit(Instruction(m))
            # ---- pseudo-ops ----
            elif m == "li":
                value = val(ops[1]) & 0xFFFF_FFFF
                rd = reg(ops[0])
                if value <= 0x7FFF or value >= 0xFFFF_8000:
                    signed = value - (1 << 32) if value >= 0xFFFF_8000 else value
                    emit(Instruction("addi", rd=rd, ra=0, imm=signed))
                    emit(Instruction("nop"))
                else:
                    emit(Instruction("addis", rd=rd, ra=0, imm=_sext16(value >> 16)))
                    emit(Instruction("ori", rd=rd, ra=rd, imm=value & 0xFFFF))
            elif m == "la":
                value = val(ops[1]) & 0xFFFF_FFFF
                rd = reg(ops[0])
                emit(Instruction("addis", rd=rd, ra=0, imm=_sext16(value >> 16)))
                emit(Instruction("ori", rd=rd, ra=rd, imm=value & 0xFFFF))
            elif m == "mr":
                src = reg(ops[1])
                emit(Instruction("or", rd=reg(ops[0]), ra=src, rb=src))
            else:
                raise AssemblerError(ln, tx, f"unknown mnemonic {m!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, AssemblerError):
                raise
            raise AssemblerError(ln, tx, str(exc)) from exc

    return Program(words, base_addr, dict(symbols))


def _sext16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def disassemble(words: Sequence[int], base_addr: int = 0) -> List[str]:
    """Human-readable listing of a word image."""
    out = []
    for i, w in enumerate(words):
        try:
            text = str(decode(w))
        except ValueError:
            text = f".word 0x{w:08X}"
        out.append(f"{base_addr + 4 * i:08x}:  {w:08X}  {text}")
    return out

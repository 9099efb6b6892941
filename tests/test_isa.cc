/**
 * @file
 * Unit tests for the ISA: assembler syntax, builder validation,
 * CFG/reconvergence analysis and the disassembler.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "isa/assembler.hh"
#include "isa/kernel.hh"

namespace gpulat {
namespace {

TEST(Assembler, ParsesBasicAlu)
{
    const Kernel k = assemble(R"(
        mov r1, 5
        iadd r2, r1, 10
        exit
    )");
    ASSERT_EQ(k.size(), 3u);
    EXPECT_EQ(k.code[0].op, Opcode::MOV);
    EXPECT_TRUE(k.code[0].useImm);
    EXPECT_EQ(k.code[0].imm, 5);
    EXPECT_EQ(k.code[1].op, Opcode::IADD);
    EXPECT_EQ(k.code[1].srcA, 1);
    EXPECT_EQ(k.code[1].imm, 10);
    EXPECT_EQ(k.code[2].op, Opcode::EXIT);
}

TEST(Assembler, KernelDirectiveSetsName)
{
    const Kernel k = assemble(".kernel foo\nexit\n");
    EXPECT_EQ(k.name, "foo");
}

TEST(Assembler, RegsAndSharedDirectives)
{
    const Kernel k = assemble(R"(
        .regs 24
        .shared 4096
        exit
    )");
    EXPECT_EQ(k.numRegs, 24);
    EXPECT_EQ(k.sharedBytes, 4096u);
}

TEST(Assembler, DefaultRegCountIsMaxUsedPlusOne)
{
    const Kernel k = assemble("mov r9, 1\nexit\n");
    EXPECT_EQ(k.numRegs, 10);
}

TEST(Assembler, ParsesHexAndNegativeImmediates)
{
    const Kernel k = assemble(R"(
        mov r1, 0x10
        mov r2, -5
        exit
    )");
    EXPECT_EQ(k.code[0].imm, 16);
    EXPECT_EQ(k.code[1].imm, -5);
}

TEST(Assembler, Parses64BitImmediatesAndRejectsWiderOnes)
{
    // A full 64-bit pattern is its two's complement value.
    const Kernel k = assemble(R"(
        mov r1, 0xfffffffffffffffc
        mov r2, 18446744073709551615
        mov r3, -9223372036854775808
        exit
    )");
    EXPECT_EQ(k.code[0].imm, -4);
    EXPECT_EQ(k.code[1].imm, -1);
    EXPECT_EQ(k.code[2].imm, INT64_MIN);

    for (const char *literal :
         {"0x10000000000000000", "18446744073709551616",
          "100000000000000000000", "-0x1fffffffffffffffff"}) {
        EXPECT_THROW(assemble(std::string("mov r1, ") + literal +
                              "\nexit\n"),
                     FatalError)
            << literal;
        EXPECT_THROW(assemble(std::string("ld.global r1, [r2+") +
                              literal + "]\nexit\n"),
                     FatalError)
            << literal;
    }
    EXPECT_THROW(assemble("mov r99999999999, 1\nexit\n"), FatalError);
}

TEST(Assembler, ParsesLoadStoreAddressing)
{
    const Kernel k = assemble(R"(
        ld.global r1, [r2+16]
        ld.local  r3, [r4]
        st.shared [r5-8], r6
        exit
    )");
    EXPECT_EQ(k.code[0].space, MemSpace::Global);
    EXPECT_EQ(k.code[0].imm, 16);
    EXPECT_EQ(k.code[1].space, MemSpace::Local);
    EXPECT_EQ(k.code[1].imm, 0);
    EXPECT_EQ(k.code[2].space, MemSpace::Shared);
    EXPECT_EQ(k.code[2].imm, -8);
    EXPECT_EQ(k.code[2].srcB, 6);
}

TEST(Assembler, ParsesParamsAndSpecialRegs)
{
    const Kernel k = assemble(R"(
        mov r1, param3
        s2r r2, ctaid
        exit
    )");
    EXPECT_EQ(k.code[0].param, 3);
    EXPECT_EQ(k.code[1].sreg, SpecialReg::Ctaid);
}

TEST(Assembler, ParsesGuards)
{
    const Kernel k = assemble(R"(
        setp.lt p1, r1, 4
        @p1 iadd r2, r2, 1
        @!p1 iadd r2, r2, 2
        exit
    )");
    EXPECT_EQ(k.code[1].pred, 1);
    EXPECT_FALSE(k.code[1].predNeg);
    EXPECT_EQ(k.code[2].pred, 1);
    EXPECT_TRUE(k.code[2].predNeg);
}

TEST(Assembler, ResolvesForwardAndBackwardLabels)
{
    const Kernel k = assemble(R"(
        top:
        iadd r1, r1, 1
        setp.lt p0, r1, 10
        @p0 bra top
        bra end
        iadd r1, r1, 100
        end:
        exit
    )");
    EXPECT_EQ(k.code[2].target, 0u);
    EXPECT_EQ(k.code[3].target, 5u);
}

TEST(Assembler, LabelOnSameLineAsInstruction)
{
    const Kernel k = assemble("start: exit\n");
    ASSERT_EQ(k.size(), 1u);
    EXPECT_EQ(k.code[0].op, Opcode::EXIT);
}

TEST(Assembler, CommentsAreIgnored)
{
    const Kernel k = assemble(R"(
        ; full line comment
        # hash comment
        mov r1, 1   // trailing comment
        exit        ; done
    )");
    EXPECT_EQ(k.size(), 2u);
}

TEST(Assembler, RejectsUnknownMnemonic)
{
    EXPECT_THROW(assemble("frobnicate r1, r2\nexit\n"), FatalError);
}

TEST(Assembler, RejectsUndefinedLabel)
{
    EXPECT_THROW(assemble("bra nowhere\nexit\n"), FatalError);
}

TEST(Assembler, RejectsMissingExit)
{
    EXPECT_THROW(assemble("mov r1, 1\n"), FatalError);
}

TEST(Assembler, RejectsBadRegister)
{
    EXPECT_THROW(assemble("mov r99, 1\nexit\n"), FatalError);
}

TEST(Assembler, RejectsSetpWithoutCondition)
{
    EXPECT_THROW(assemble("setp p0, r1, r2\nexit\n"), FatalError);
}

TEST(Reconvergence, IfThenReconvergesAtJoin)
{
    // @p0 bra skip jumps over one instruction; reconvergence is the
    // branch target itself.
    const Kernel k = assemble(R"(
        setp.lt p0, r1, 4
        @p0 bra skip
        iadd r2, r2, 1
        skip:
        exit
    )");
    EXPECT_EQ(k.code[1].reconv, 3u);
}

TEST(Reconvergence, IfElseReconvergesAfterBothArms)
{
    const Kernel k = assemble(R"(
        setp.lt p0, r1, 4
        @p0 bra else_arm
        iadd r2, r2, 1
        bra join
        else_arm:
        iadd r2, r2, 2
        join:
        exit
    )");
    EXPECT_EQ(k.code[1].reconv, 5u);
}

TEST(Reconvergence, LoopBranchReconvergesAtExitBlock)
{
    const Kernel k = assemble(R"(
        loop:
        iadd r1, r1, 1
        setp.lt p0, r1, 8
        @p0 bra loop
        exit
    )");
    // Backward divergent branch: paths meet at the fall-through.
    EXPECT_EQ(k.code[2].reconv, 3u);
}

TEST(Reconvergence, NestedIfsHaveNestedReconvergence)
{
    const Kernel k = assemble(R"(
        setp.lt p0, r1, 4
        @p0 bra outer_skip
        setp.lt p1, r2, 4
        @p1 bra inner_skip
        iadd r3, r3, 1
        inner_skip:
        iadd r3, r3, 2
        outer_skip:
        exit
    )");
    EXPECT_EQ(k.code[1].reconv, 6u); // outer joins at outer_skip
    EXPECT_EQ(k.code[3].reconv, 5u); // inner joins at inner_skip
}

TEST(Builder, PcTracksEmittedInstructions)
{
    KernelBuilder b("t");
    EXPECT_EQ(b.pc(), 0u);
    b.movImm(1, 0);
    EXPECT_EQ(b.pc(), 1u);
    b.exit();
    EXPECT_EQ(b.pc(), 2u);
}

TEST(Builder, DuplicateLabelIsAnError)
{
    KernelBuilder b("t");
    b.label("x");
    EXPECT_THROW(b.label("x"), PanicError);
}

TEST(Builder, RejectsDoubleFinalize)
{
    KernelBuilder b("t");
    b.exit();
    b.finalize();
    EXPECT_THROW(b.finalize(), PanicError);
}

TEST(Disassembler, RoundTripsRepresentativeInstructions)
{
    const Kernel k = assemble(R"(
        mov r1, param0
        ld.global r2, [r1+8]
        setp.ge p0, r2, 10
        @p0 bra out
        st.local [r1], r2
        out:
        exit
    )");
    EXPECT_EQ(disassemble(k.code[0]), "mov r1, param0");
    EXPECT_EQ(disassemble(k.code[1]), "ld.global r2, [r1+8]");
    EXPECT_NE(disassemble(k.code[2]).find("setp.ge p0"),
              std::string::npos);
    EXPECT_NE(disassemble(k.code[3]).find("@p0 bra 5"),
              std::string::npos);
    EXPECT_EQ(disassemble(k.code[4]), "st.local [r1], r2");
}

TEST(Instruction, ClassificationHelpers)
{
    const Kernel k = assemble(R"(
        ld.global r1, [r2]
        st.global [r2], r1
        fadd r3, r1, r1
        bar
        exit
    )");
    EXPECT_TRUE(k.code[0].isLoad());
    EXPECT_TRUE(k.code[0].isMemory());
    EXPECT_TRUE(k.code[1].isStore());
    EXPECT_TRUE(k.code[2].isFloat());
    EXPECT_TRUE(k.code[3].isBarrier());
    EXPECT_TRUE(k.code[4].isExit());
}

} // namespace
} // namespace gpulat

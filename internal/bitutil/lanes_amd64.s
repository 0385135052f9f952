#include "textflag.h"

// The SSE2 lane folds of the DESC round on amd64. Each takes a round of
// any length, as words or as the bytes of little-endian words, or a run
// of equal rounds. A single round's entries load the base and the word
// count and jump to the lane width's body, which runs in the entry's
// frame and stores the results into it. A run's entry first checks
// that b holds its rounds (rounds × roundBytes, with no carry, at most
// len(b)) and that roundBytes is a positive multiple of 8, and jumps to
// panicRounds, in its frame, if not; it then loops over the rounds
// itself and stores each round's results at DI. Both run the same
// per-round code (NIBBLEROUND, BYTEROUND), so a single round pays
// nothing for the run's loop. Whole 8-word (64-byte) groups, a 128-wire
// round of 4-bit chunks, go through four 16-byte registers at a time,
// then a 4-, a 2- and a 1-word piece of the words left over. A PMAXUB
// tree gives the largest lane; PCMPEQB against zero plus PSUBB counts
// the zero lanes in byte counters that PSADBW sums into a 64-bit total
// once per group, so no counter overflows however many groups a round
// has. A 1-word piece loads into the low half of a register, whose zero
// high half is taken off the count again (R8). The pieces advance SI by
// what they read, so the next round of a run starts where the last one
// ended. SSE2 is part of every amd64 CPU (GOAMD64=v1), so nothing checks
// for it. Registers: SI the next word, CX the words of the round, DI the
// next RoundFold of a run, R9 the rounds left, R10 the words of each
// round of a run, X8 the low-nibble mask, X9 zero, X10 the running lane
// maximum, X11 the zero-lane total, X12 the byte counters, X13 scratch.

// SPLIT leaves the low nibble of every byte of lo in lo and the high
// nibble in hi.
#define SPLIT(lo, hi) MOVO lo, hi; PSRLW $4, hi; PAND X8, lo; PAND X8, hi

// COUNTZEROS adds one to X12's byte counter for every zero byte of x.
#define COUNTZEROS(x) MOVO X9, X13; PCMPEQB x, X13; PSUBB X13, X12

// SUMZEROS adds X12's byte counters to the zero-lane total and clears
// them.
#define SUMZEROS PSADBW X9, X12; PADDQ X12, X11; PXOR X12, X12

// STARTROUND splits the round's CX words into 8-word groups in DX and
// words left over in CX, and clears the round's maximum, zero total and
// 1-word correction.
#define STARTROUND \
	MOVQ CX, DX; SHRQ $3, DX; ANDQ $7, CX; \
	XORQ R8, R8; PXOR X10, X10; PXOR X11, X11

// RESULTS folds X10's 16 bytes to their maximum in AX and X11's two
// halves to their sum less R8 in BX.
#define RESULTS \
	MOVO   X10, X0; PSRLDQ $8, X0; PMAXUB X0, X10; \
	MOVO   X10, X0; PSRLDQ $4, X0; PMAXUB X0, X10; \
	MOVO   X10, X0; PSRLDQ $2, X0; PMAXUB X0, X10; \
	MOVO   X10, X0; PSRLDQ $1, X0; PMAXUB X0, X10; \
	MOVQ   X10, AX; MOVBQZX AX, AX; \
	MOVO   X11, X0; PSRLDQ $8, X0; PADDQ X0, X11; \
	MOVQ   X11, BX; SUBQ R8, BX

// NIBBLESETUP loads the low-nibble mask and clears X9 and the byte
// counters.
#define NIBBLESETUP \
	MOVQ $0x0F0F0F0F0F0F0F0F, AX; MOVQ AX, X8; PSHUFD $0x44, X8, X8; \
	PXOR X9, X9; PXOR X12, X12

// NIBBLEROUND folds the round of CX words at SI, in nibble lanes, into
// AX (peak) and BX (zeros), leaving SI after it. Its labels are local
// to the TEXT block it is expanded in.
#define NIBBLEROUND \
	STARTROUND; \
	TESTQ DX, DX; JZ nibble4; \
nibble8: \
	MOVOU 0(SI), X0; MOVOU 16(SI), X1; MOVOU 32(SI), X2; MOVOU 48(SI), X3; \
	SPLIT(X0, X4); SPLIT(X1, X5); SPLIT(X2, X6); SPLIT(X3, X7); \
	COUNTZEROS(X0); COUNTZEROS(X1); COUNTZEROS(X2); COUNTZEROS(X3); \
	COUNTZEROS(X4); COUNTZEROS(X5); COUNTZEROS(X6); COUNTZEROS(X7); \
	SUMZEROS; \
	PMAXUB X4, X0; PMAXUB X5, X1; PMAXUB X6, X2; PMAXUB X7, X3; \
	PMAXUB X1, X0; PMAXUB X3, X2; PMAXUB X2, X0; PMAXUB X0, X10; \
	ADDQ $64, SI; DECQ DX; JNZ nibble8; \
nibble4: \
	CMPQ CX, $4; JB nibble2; \
	MOVOU 0(SI), X0; MOVOU 16(SI), X1; \
	SPLIT(X0, X4); SPLIT(X1, X5); \
	COUNTZEROS(X0); COUNTZEROS(X1); COUNTZEROS(X4); COUNTZEROS(X5); \
	PMAXUB X4, X0; PMAXUB X5, X1; PMAXUB X1, X0; PMAXUB X0, X10; \
	ADDQ $32, SI; SUBQ $4, CX; \
nibble2: \
	CMPQ CX, $2; JB nibble1; \
	MOVOU 0(SI), X0; \
	SPLIT(X0, X4); \
	COUNTZEROS(X0); COUNTZEROS(X4); \
	PMAXUB X4, X0; PMAXUB X0, X10; \
	ADDQ $16, SI; SUBQ $2, CX; \
nibble1: \
	TESTQ CX, CX; JZ nibbleDone; \
	MOVQ 0(SI), X0; MOVQ $16, R8; \
	SPLIT(X0, X4); \
	COUNTZEROS(X0); COUNTZEROS(X4); \
	PMAXUB X4, X0; PMAXUB X0, X10; \
	ADDQ $8, SI; \
nibbleDone: \
	SUMZEROS; \
	RESULTS

// BYTEROUND is NIBBLEROUND for byte lanes.
#define BYTEROUND \
	STARTROUND; \
	TESTQ DX, DX; JZ byte4; \
byte8: \
	MOVOU 0(SI), X0; MOVOU 16(SI), X1; MOVOU 32(SI), X2; MOVOU 48(SI), X3; \
	COUNTZEROS(X0); COUNTZEROS(X1); COUNTZEROS(X2); COUNTZEROS(X3); \
	SUMZEROS; \
	PMAXUB X1, X0; PMAXUB X3, X2; PMAXUB X2, X0; PMAXUB X0, X10; \
	ADDQ $64, SI; DECQ DX; JNZ byte8; \
byte4: \
	CMPQ CX, $4; JB byte2; \
	MOVOU 0(SI), X0; MOVOU 16(SI), X1; \
	COUNTZEROS(X0); COUNTZEROS(X1); \
	PMAXUB X1, X0; PMAXUB X0, X10; \
	ADDQ $32, SI; SUBQ $4, CX; \
byte2: \
	CMPQ CX, $2; JB byte1; \
	MOVOU 0(SI), X0; \
	COUNTZEROS(X0); \
	PMAXUB X0, X10; \
	ADDQ $16, SI; SUBQ $2, CX; \
byte1: \
	TESTQ CX, CX; JZ byteDone; \
	MOVQ 0(SI), X0; MOVQ $8, R8; \
	COUNTZEROS(X0); \
	PMAXUB X0, X10; \
	ADDQ $8, SI; \
byteDone: \
	SUMZEROS; \
	RESULTS

// CHECKROUNDS loads a run's arguments (SI, R10 in words, DI, R9) and
// jumps to bad unless b holds the rounds.
#define CHECKROUNDS(bad) \
	MOVQ b_base+0(FP), SI; MOVQ roundBytes+24(FP), R10; \
	MOVQ out_base+32(FP), DI; MOVQ out_len+40(FP), R9; \
	TESTQ R10, R10; JLE bad; TESTQ $7, R10; JNZ bad; \
	MOVQ R9, AX; MULQ R10; JC bad; CMPQ AX, b_len+8(FP); JA bad; \
	SHRQ $3, R10

// func nibbleKernel(xs []uint64) (peak uint16, zeros int)
TEXT ·nibbleKernel(SB), NOSPLIT, $0-40
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	JMP  nibbleBody<>(SB)

// func nibbleKernelBytes(b []byte) (peak uint16, zeros int)
TEXT ·nibbleKernelBytes(SB), NOSPLIT, $0-40
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	SHRQ $3, CX
	JMP  nibbleBody<>(SB)

// nibbleBody folds the round of CX words at SI. Both single-round
// entries jump to it with their frame in place, so it stores the
// results into theirs.
TEXT nibbleBody<>(SB), NOSPLIT, $0-40
	NIBBLESETUP
	NIBBLEROUND
	MOVW AX, peak+24(FP)
	MOVQ BX, zeros+32(FP)
	RET

// func nibbleKernelRounds(b []byte, roundBytes int, out []RoundFold)
TEXT ·nibbleKernelRounds(SB), NOSPLIT, $0-56
	CHECKROUNDS(nibbleBadRounds)
	TESTQ R9, R9
	JZ    nibbleNoRounds
	NIBBLESETUP

nibbleNextRound:
	MOVQ R10, CX
	NIBBLEROUND
	MOVL AX, 0(DI)
	MOVL BX, 4(DI)
	ADDQ $8, DI
	DECQ R9
	JNZ  nibbleNextRound

nibbleNoRounds:
	RET

nibbleBadRounds:
	JMP ·panicRounds(SB)

// func byteKernel(xs []uint64) (peak uint16, zeros int)
TEXT ·byteKernel(SB), NOSPLIT, $0-40
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	JMP  byteBody<>(SB)

// func byteKernelBytes(b []byte) (peak uint16, zeros int)
TEXT ·byteKernelBytes(SB), NOSPLIT, $0-40
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	SHRQ $3, CX
	JMP  byteBody<>(SB)

// byteBody is nibbleBody for byte lanes.
TEXT byteBody<>(SB), NOSPLIT, $0-40
	PXOR X9, X9
	PXOR X12, X12
	BYTEROUND
	MOVW AX, peak+24(FP)
	MOVQ BX, zeros+32(FP)
	RET

// func byteKernelRounds(b []byte, roundBytes int, out []RoundFold)
TEXT ·byteKernelRounds(SB), NOSPLIT, $0-56
	CHECKROUNDS(byteBadRounds)
	TESTQ R9, R9
	JZ    byteNoRounds
	PXOR  X9, X9
	PXOR  X12, X12

byteNextRound:
	MOVQ R10, CX
	BYTEROUND
	MOVL AX, 0(DI)
	MOVL BX, 4(DI)
	ADDQ $8, DI
	DECQ R9
	JNZ  byteNextRound

byteNoRounds:
	RET

byteBadRounds:
	JMP ·panicRounds(SB)

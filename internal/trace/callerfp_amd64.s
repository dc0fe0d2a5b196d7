#include "textflag.h"

// func callerFP() unsafe.Pointer
TEXT ·callerFP(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ BP, ret+0(FP)
	RET

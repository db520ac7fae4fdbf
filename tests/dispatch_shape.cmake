# Dispatch-shape check on the built library: Interpreter::runChained must
# end each handler in its own indirect jump (docs/INTERPRETER.md). The
# check disassembles the function and fails when it holds fewer indirect
# jmps than there are handlers that dispatch. Compilers that merge the
# handlers' tails leave one shared jump, through which every fast-forward
# instruction then goes.
#
# Invoked by ctest with:
#   -DOBJDUMP=<objdump> -DLIB=<libbor.a> -DMIN_JUMPS=<handlers>

execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn
                        --disassemble=_ZN3bor11Interpreter10runChainedEm
                        ${LIB}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE ASM
                ERROR_VARIABLE ERR)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "objdump failed (${RC}):\n${ERR}")
endif()
if(NOT ASM MATCHES "<_ZN3bor11Interpreter10runChainedEm>:")
  message(FATAL_ERROR "bor::Interpreter::runChained not found in ${LIB}")
endif()

# "jmp *%rax", "jmp *(%rax,%rcx,8)", and "notrack jmp *..." under CET.
string(REGEX MATCHALL "jmp[ \t]+\\*" JUMPS "${ASM}")
list(LENGTH JUMPS N)
message(STATUS "runChained: ${N} indirect jumps, at least ${MIN_JUMPS} needed")
if(N LESS MIN_JUMPS)
  message(FATAL_ERROR
          "runChained has ${N} indirect jumps for ${MIN_JUMPS} dispatching "
          "handlers: the compiler merged their dispatch tails")
endif()

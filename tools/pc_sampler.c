// A program-counter sampler to answer "where did the host time go?" for any
// binary of this repository, without a profiler installed. Load it into the
// process to sample, then symbolize what it wrote:
//
//   LD_PRELOAD=build/tools/libpc_sampler.so ./build/tools/ursa_sim --jobs=50
//   python3 tools/pc_sampler_report.py pc_samples.txt
//
// At load time it arms ITIMER_PROF on its own process, one sample per
// millisecond of CPU time (the kernel may deliver them at its tick, often
// every 4 ms). Each SIGPROF records the interrupted PC and the word at the
// stack pointer (on aarch64, the link register). Inside a libc leaf such as
// memcmp or memcpy, which pushes no frame, that word is the return address,
// so the report can charge the sample to the calling function. At exit the
// library writes the samples and the process's memory map to pc_samples.txt
// in the working directory. Only the process that armed the timer writes,
// so a forked child adds nothing; an exec'd child inherits LD_PRELOAD and
// rewrites the file, so sample one process at a time.
//
// CMake defines _GNU_SOURCE for this file (REG_RIP, REG_RSP).
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kCapacity = 1 << 20 };  // 16 MiB of address space, touched as used.

struct Sample {
  uintptr_t pc;
  uintptr_t word;  // [SP] on x86-64, LR on aarch64.
};

static struct Sample samples[kCapacity];
static atomic_size_t num_samples;
static pid_t owner;

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  uintptr_t pc = 0;
  uintptr_t word = 0;
#if defined(__x86_64__)
  pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  const uintptr_t* sp = NULL;  // The register's bits, copied into a pointer.
  memcpy(&sp, &uc->uc_mcontext.gregs[REG_RSP], sizeof(sp));
  word = *sp;
#elif defined(__aarch64__)
  pc = (uintptr_t)uc->uc_mcontext.pc;
  word = (uintptr_t)uc->uc_mcontext.regs[30];
#else
  (void)uc;
#endif
  const size_t i = atomic_fetch_add_explicit(&num_samples, 1, memory_order_relaxed);
  if (i < kCapacity) {
    samples[i].pc = pc;
    samples[i].word = word;
  }
}

__attribute__((constructor)) static void Start(void) {
  owner = getpid();
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  struct itimerval timer;
  memset(&timer, 0, sizeof(timer));
  timer.it_interval.tv_usec = 1000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void Stop(void) {
  if (getpid() != owner) {
    return;
  }
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  FILE* out = fopen("pc_samples.txt", "w");
  if (out == NULL) {
    return;
  }
  char line[4096];
  const ssize_t len = readlink("/proc/self/exe", line, sizeof(line) - 1);
  if (len > 0) {
    line[len] = '\0';
    fprintf(out, "exe %s\n", line);
  }
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    while (fgets(line, sizeof(line), maps) != NULL) {
      fprintf(out, "map %s", line);
    }
    fclose(maps);
  }
  size_t n = atomic_load(&num_samples);
  if (n > kCapacity) {
    fprintf(out, "dropped %zu\n", n - kCapacity);
    n = kCapacity;
  }
  for (size_t i = 0; i < n; ++i) {
    fprintf(out, "s %lx %lx\n", (unsigned long)samples[i].pc,
            (unsigned long)samples[i].word);
  }
  fclose(out);
}

-- TACO functional-unit component library (generated; see internal/gen)

-- TACO functional unit: taco_checksum
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_checksum is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_checksum;

architecture behavioural of taco_checksum is
  signal r_reg : std_logic_vector(31 downto 0);
  signal w_tclr : std_logic; -- trigger strobe
  signal w_tadd : std_logic; -- trigger strobe
  signal sig_valid : std_logic; -- to network controller
begin
  w_tclr <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 0 else '0';
  w_tadd <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 1 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      -- operation
      if w_tclr = '1' then acc <= (others => '0');
              elsif w_tadd = '1' then
                acc <= acc + unsigned(x"0000" & bus_data(31 downto 16)) + unsigned(x"0000" & bus_data(15 downto 0));
              end if;
              -- one's-complement folding on the read port
              r_reg <= std_logic_vector(acc(15 downto 0) + acc(31 downto 16));
              sig_valid <= '1' when r_reg = x"0000ffff" else '0';
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_comparator
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_comparator is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_comparator;

architecture behavioural of taco_comparator is
  signal o_reg : std_logic_vector(31 downto 0);
  signal r_reg : std_logic_vector(31 downto 0);
  signal w_t : std_logic; -- trigger strobe
  signal sig_eq : std_logic; -- to network controller
  signal sig_lt : std_logic; -- to network controller
  signal sig_gt : std_logic; -- to network controller
begin
  w_t <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 1 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then o_reg <= bus_data; end if;
      -- operation
      if w_t = '1' then
                sig_eq <= '1' when bus_data = o_reg else '0';
                sig_lt <= '1' when unsigned(bus_data) < unsigned(o_reg) else '0';
                sig_gt <= '1' when unsigned(bus_data) > unsigned(o_reg) else '0';
                r_reg  <= (0 => sig_eq, others => '0');
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_counter
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_counter is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_counter;

architecture behavioural of taco_counter is
  signal o_reg : std_logic_vector(31 downto 0);
  signal stop_reg : std_logic_vector(31 downto 0);
  signal r_reg : std_logic_vector(31 downto 0);
  signal w_tadd : std_logic; -- trigger strobe
  signal w_tsub : std_logic; -- trigger strobe
  signal w_tinc : std_logic; -- trigger strobe
  signal w_tdec : std_logic; -- trigger strobe
  signal w_tld : std_logic; -- trigger strobe
  signal w_tcnt : std_logic; -- trigger strobe
  signal sig_done : std_logic; -- to network controller
  signal sig_zero : std_logic; -- to network controller
begin
  w_tadd <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 2 else '0';
  w_tsub <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 3 else '0';
  w_tinc <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 4 else '0';
  w_tdec <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 5 else '0';
  w_tld <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 6 else '0';
  w_tcnt <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 7 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then o_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 1 then stop_reg <= bus_data; end if;
      -- operation
      if w_tadd = '1' then r_reg <= std_logic_vector(unsigned(bus_data) + unsigned(o_reg));
              elsif w_tsub = '1' then r_reg <= std_logic_vector(unsigned(bus_data) - unsigned(o_reg));
              elsif w_tinc = '1' then r_reg <= std_logic_vector(unsigned(bus_data) + 1);
              elsif w_tdec = '1' then r_reg <= std_logic_vector(unsigned(bus_data) - 1);
              elsif w_tld  = '1' then r_reg <= bus_data;
              elsif counting = '1' then
                if unsigned(r_reg) < unsigned(stop_reg) then r_reg <= std_logic_vector(unsigned(r_reg) + 1);
                elsif unsigned(r_reg) > unsigned(stop_reg) then r_reg <= std_logic_vector(unsigned(r_reg) - 1);
                end if;
              end if;
              sig_done <= '1' when r_reg = stop_reg else '0';
              sig_zero <= '1' when unsigned(r_reg) = 0 else '0';
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_ippu
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_ippu is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_ippu;

architecture behavioural of taco_ippu is
  signal ptr_reg : std_logic_vector(31 downto 0);
  signal ifc_reg : std_logic_vector(31 downto 0);
  signal len_reg : std_logic_vector(31 downto 0);
  signal w_tpop : std_logic; -- trigger strobe
  signal sig_pending : std_logic; -- to network controller
begin
  w_tpop <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 0 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      -- operation
      -- autonomous DMA engine: scans card input buffers, writes the
              -- datagram into data memory, pushes a descriptor
              if w_tpop = '1' and queue_nonempty = '1' then
                ptr_reg <= q_head_ptr; ifc_reg <= q_head_ifc; len_reg <= q_head_len;
              end if;
              sig_pending <= queue_nonempty;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_liu
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_liu is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_liu;

architecture behavioural of taco_liu is
  signal a0_reg : std_logic_vector(31 downto 0);
  signal a1_reg : std_logic_vector(31 downto 0);
  signal a2_reg : std_logic_vector(31 downto 0);
  signal mine_reg : std_logic_vector(31 downto 0);
  signal nifc_reg : std_logic_vector(31 downto 0);
  signal w_tchk : std_logic; -- trigger strobe
  signal sig_mine : std_logic; -- to network controller
begin
  w_tchk <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 3 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then a0_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 1 then a1_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 2 then a2_reg <= bus_data; end if;
      -- operation
      if w_tchk = '1' then
                sig_mine <= '1' when {a0_reg, a1_reg, a2_reg, bus_data} = local_addr else '0';
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_masker
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_masker is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_masker;

architecture behavioural of taco_masker is
  signal mask_reg : std_logic_vector(31 downto 0);
  signal val_reg : std_logic_vector(31 downto 0);
  signal r_reg : std_logic_vector(31 downto 0);
  signal w_t : std_logic; -- trigger strobe
begin
  w_t <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 2 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then mask_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 1 then val_reg <= bus_data; end if;
      -- operation
      if w_t = '1' then
                r_reg <= (bus_data and not mask_reg) or (val_reg and mask_reg);
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_matcher
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_matcher is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_matcher;

architecture behavioural of taco_matcher is
  signal mask_reg : std_logic_vector(31 downto 0);
  signal ref_reg : std_logic_vector(31 downto 0);
  signal r_reg : std_logic_vector(31 downto 0);
  signal w_t : std_logic; -- trigger strobe
  signal w_tand : std_logic; -- trigger strobe
  signal sig_match : std_logic; -- to network controller
begin
  w_t <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 2 else '0';
  w_tand <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 3 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then mask_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 1 then ref_reg <= bus_data; end if;
      -- operation
      if w_t = '1' then
                sig_match <= '1' when ((bus_data xor ref_reg) and mask_reg) = x"00000000" else '0';
              elsif w_tand = '1' then
                sig_match <= sig_match and
                  ('1' when ((bus_data xor ref_reg) and mask_reg) = x"00000000" else '0');
              end if;
              r_reg <= (0 => sig_match, others => '0');
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_mmu
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_mmu is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_mmu;

architecture behavioural of taco_mmu is
  signal ow_reg : std_logic_vector(31 downto 0);
  signal r_reg : std_logic_vector(31 downto 0);
  signal w_tr : std_logic; -- trigger strobe
  signal w_tw : std_logic; -- trigger strobe
begin
  w_tr <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 1 else '0';
  w_tw <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 2 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then ow_reg <= bus_data; end if;
      -- operation
      if w_tr = '1' then r_reg <= dmem(to_integer(unsigned(bus_data)));
              elsif w_tw = '1' then dmem(to_integer(unsigned(bus_data))) <= ow_reg;
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO interconnection network controller
-- Fetches one instruction word per cycle from program memory, evaluates
-- move guards against the functional units' signal lines, and drives
-- one (src, dst) address pair per bus. Jump/halt sockets live here.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_network_controller is
  generic (SOCKET_BASE : natural);
  port (clk, rst_n : in std_logic);
end entity taco_network_controller;

architecture behavioural of taco_network_controller is
  signal pc : unsigned(15 downto 0);
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if rst_n = '0' then
        pc <= (others => '0');
      else
        -- guarded jump: a move targeting the jmp socket replaces pc
        pc <= pc + 1;
      end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_oppu
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_oppu is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_oppu;

architecture behavioural of taco_oppu is
  signal ptr_reg : std_logic_vector(31 downto 0);
  signal len_reg : std_logic_vector(31 downto 0);
  signal w_tsend : std_logic; -- trigger strobe
  signal sig_err : std_logic; -- to network controller
begin
  w_tsend <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 2 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then ptr_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 1 then len_reg <= bus_data; end if;
      -- operation
      -- autonomous DMA engine: copies [ptr_reg, ptr_reg+len_reg) from
              -- data memory into the output buffer of card bus_data
              if w_tsend = '1' then start_tx <= '1'; tx_card <= bus_data(3 downto 0);
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_registers
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_registers is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_registers;

architecture behavioural of taco_registers is
begin
  process (clk)
  begin
    if rising_edge(clk) then
      -- operation
      -- general-purpose register file: every socket in range is a
              -- read/write register addressed by (dst - SOCKET_BASE)
              if bus_we = '1' and in_range(bus_dst) then
                regs(to_integer(unsigned(bus_dst)) - SOCKET_BASE) <= bus_data;
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_rtu_balanced_tree
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_rtu_balanced_tree is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_rtu_balanced_tree;

architecture behavioural of taco_rtu_balanced_tree is
  signal f0_reg : std_logic_vector(31 downto 0);
  signal f1_reg : std_logic_vector(31 downto 0);
  signal f2_reg : std_logic_vector(31 downto 0);
  signal f3_reg : std_logic_vector(31 downto 0);
  signal l0_reg : std_logic_vector(31 downto 0);
  signal l1_reg : std_logic_vector(31 downto 0);
  signal l2_reg : std_logic_vector(31 downto 0);
  signal l3_reg : std_logic_vector(31 downto 0);
  signal left_reg : std_logic_vector(31 downto 0);
  signal right_reg : std_logic_vector(31 downto 0);
  signal ifc_reg : std_logic_vector(31 downto 0);
  signal root_reg : std_logic_vector(31 downto 0);
  signal w_tnode : std_logic; -- trigger strobe
  signal sig_valid : std_logic; -- to network controller
begin
  w_tnode <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 0 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      -- operation
      -- node latch: range, children and interface of node bus_data
              if w_tnode = '1' then node_latch <= node_mem(to_integer(unsigned(bus_data)));
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_rtu_cam
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_rtu_cam is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_rtu_cam;

architecture behavioural of taco_rtu_cam is
  signal a0_reg : std_logic_vector(31 downto 0);
  signal a1_reg : std_logic_vector(31 downto 0);
  signal a2_reg : std_logic_vector(31 downto 0);
  signal ifc_reg : std_logic_vector(31 downto 0);
  signal hit_reg : std_logic_vector(31 downto 0);
  signal w_tlook : std_logic; -- trigger strobe
  signal sig_ready : std_logic; -- to network controller
  signal sig_hit : std_logic; -- to network controller
begin
  w_tlook <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 3 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then a0_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 1 then a1_reg <= bus_data; end if;
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 2 then a2_reg <= bus_data; end if;
      -- operation
      -- search: the external CAM raises ready and hit after its wait cycles
              if w_tlook = '1' then cam_key <= a0_reg & a1_reg & a2_reg & bus_data; sig_ready <= '0';
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_rtu_sequential
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_rtu_sequential is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_rtu_sequential;

architecture behavioural of taco_rtu_sequential is
  signal p0_reg : std_logic_vector(31 downto 0);
  signal p1_reg : std_logic_vector(31 downto 0);
  signal p2_reg : std_logic_vector(31 downto 0);
  signal p3_reg : std_logic_vector(31 downto 0);
  signal m0_reg : std_logic_vector(31 downto 0);
  signal m1_reg : std_logic_vector(31 downto 0);
  signal m2_reg : std_logic_vector(31 downto 0);
  signal m3_reg : std_logic_vector(31 downto 0);
  signal ifc_reg : std_logic_vector(31 downto 0);
  signal lenp1_reg : std_logic_vector(31 downto 0);
  signal count_reg : std_logic_vector(31 downto 0);
  signal w_tidx : std_logic; -- trigger strobe
  signal sig_valid : std_logic; -- to network controller
begin
  w_tidx <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 0 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      -- operation
      -- entry latch: prefix, mask, length and interface of entry bus_data
              if w_tidx = '1' then entry_latch <= table_mem(to_integer(unsigned(bus_data)));
              end if;
    end if;
  end process;
end architecture behavioural;

-- TACO functional unit: taco_shifter
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity taco_shifter is
  generic (SOCKET_BASE : natural);
  port (
    clk, rst_n : in  std_logic;
    bus_we     : in  std_logic;
    bus_dst    : in  std_logic_vector(11 downto 0);
    bus_data   : in  std_logic_vector(31 downto 0);
    rd_addr    : in  std_logic_vector(11 downto 0);
    rd_data    : out std_logic_vector(31 downto 0)
  );
end entity taco_shifter;

architecture behavioural of taco_shifter is
  signal amt_reg : std_logic_vector(31 downto 0);
  signal r_reg : std_logic_vector(31 downto 0);
  signal w_tl : std_logic; -- trigger strobe
  signal w_tr : std_logic; -- trigger strobe
  signal w_tmul2 : std_logic; -- trigger strobe
  signal sig_zero : std_logic; -- to network controller
begin
  w_tl <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 1 else '0';
  w_tr <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 2 else '0';
  w_tmul2 <= bus_we when unsigned(bus_dst) = SOCKET_BASE + 3 else '0';
  process (clk)
  begin
    if rising_edge(clk) then
      if bus_we = '1' and unsigned(bus_dst) = SOCKET_BASE + 0 then amt_reg <= bus_data; end if;
      -- operation
      if w_tl = '1' then r_reg <= std_logic_vector(shift_left(unsigned(bus_data), to_integer(unsigned(amt_reg(4 downto 0)))));
              elsif w_tr = '1' then r_reg <= std_logic_vector(shift_right(unsigned(bus_data), to_integer(unsigned(amt_reg(4 downto 0)))));
              elsif w_tmul2 = '1' then r_reg <= bus_data(30 downto 0) & '0';
              end if;
              sig_zero <= '1' when unsigned(r_reg) = 0 else '0';
    end if;
  end process;
end architecture behavioural;

